package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nearestRank is the percentile definition of the whole benchmark and of
// internal/sim: the ceil(q*N)-th smallest of N samples, 1-based. It sorts
// xs in place. Zero samples report 0.
func nearestRank(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return xs[rank-1]
}

// median is the nearest-rank p50, so every reported middle value follows
// one definition.
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot holds the process counters read at a phase boundary.
type snapshot struct {
	at        time.Time
	cpu       time.Duration
	steal     time.Duration
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func takeSnapshot() snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return snapshot{
		at:        time.Now(),
		cpu:       cpuTime(),
		steal:     hostSteal(),
		allocB:    m.TotalAlloc,
		gcCycles:  m.NumGC,
		gcPauseNs: m.PauseTotalNs,
	}
}

// hostSteal is the time the host's hypervisor ran something else while
// this machine's CPUs were ready to run (the steal column of /proc/stat,
// in USER_HZ ticks of 10 ms), summed over CPUs; 0 where it is unavailable.
// Other tenants of a shared host take it, and every wall-clock metric
// slows with it.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// hostLine is the fingerprint printed with every result: results are only
// comparable between runs on the same host and toolchain.
func hostLine(workload string, seed int64) string {
	amd64 := "unset"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				amd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d goamd64=%s go=%s workload=%s seed=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), amd64, runtime.Version(), workload, seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
