// Command perfbench is the repository's end-to-end benchmark: it serves
// closed-loop traffic through serve.Session over a device pool, checks every
// reply against a single-engine reference, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output.
//
//	bash perfbench/run.sh --workload f8-smallcnn-tiled --seed 1 --seconds 10 --trace 0
//
// End-to-end numbers come only from untraced runs. A traced run serves half
// its time untraced and half with spans recorded around the calls into
// serve and the pool, then times every compiled step on a replica plan.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// deadline bounds a whole run: the benchmark must answer within three
// minutes even if a request hangs.
const deadline = 170 * time.Second

// traceDir holds the span files of traced runs, under the build directory
// of the checkout the benchmark runs in.
const traceDir = ".bench_build/perfbench"

// stepBudget is the time the traced run spends timing compiled steps.
const stepBudget = 2 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of the measured serving phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d must be 0 or 1\n", *trace)
		os.Exit(1)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the metrics BENCHMARK.json
// declares, in its order. run refuses to print a result whose metrics
// differ, and TestBenchmarkJSONDeclaresTheMetrics keeps the file in step.
var endToEndMetrics = []metricSpec{
	{"throughput_sps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_sample", "ms"},
	{"shots_per_sample", "count"},
	{"alloc_kb_per_sample", "KiB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricSpec{
	{"serve.wait_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.batch_width", "count"},
	{"serve.retries_per_1k", "count/1k"},
	{"serve.splits_per_1k", "count/1k"},
	{"serve.failovers_per_1k", "count/1k"},
	{"pool.forward_ms_p50", "ms"},
	{"pool.busy_frac_min", "frac"},
	{"pool.busy_frac_max", "frac"},
	{"pool.hedges_per_1k", "count/1k"},
	{"pool.hedge_win_frac", "frac"},
	{"pool.quarantines", "count"},
	{"pool.probes", "count"},
	{"pool.exhausted", "count"},
	{"fault.device_faults", "count"},
	{"jtc.retried_shots_per_1k", "count/1k"},
	{"go.gc_cycles", "count/1k"},
	{"go.gc_pause_ms", "ms/1k"},
	{"trace.overhead_frac", "frac"},
	{"setup.open_ms", "ms"},
	{"setup.compile_ms", "ms"},
	{"setup.warm_ms", "ms"},
	{"nn.conv-first.ms", "ms"},
	{"nn.conv-first.alloc_kb", "KiB"},
	{"jtc.conv-first.shots", "count"},
	{"arch.conv-first.model_share", "frac"},
	{"nn.conv-last.ms", "ms"},
	{"nn.conv-last.alloc_kb", "KiB"},
	{"jtc.conv-last.shots", "count"},
	{"arch.conv-last.model_share", "frac"},
	{"nn.convs.ms", "ms"},
	{"nn.cpu_steps.ms", "ms"},
	{"tiling.ktransforms", "count"},
}

// matches reports how the output's metrics differ from the declared ones.
func (o *output) matches(want []metricSpec) error {
	for _, m := range want {
		got, ok := o.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", m.name, got.Unit, m.unit)
		}
	}
	if len(o.Metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(o.Metrics), len(want))
	}
	return nil
}

func (o *output) add(name string, value float64, unit, note string) {
	o.Metrics[name] = metric{Value: value, Unit: unit}
	show(name, value, unit, note)
}

// show prints one figure; figures printed but not added are not metrics
// of BENCHMARK.json.
func show(name string, value float64, unit, note string) {
	fmt.Printf("%-26s %14.6g %-8s %s\n", name, value, unit, note)
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	fmt.Println(hostLine(w.name, seed))
	fmt.Println("pool:", w.poolSpec)
	inputs, byFirst, err := makeInputs(seed)
	if err != nil {
		return err
	}
	refs, err := w.references(inputs)
	if err != nil {
		return err
	}
	c := newClient(w, inputs, refs)
	c.start()
	defer c.stop()
	srv, setups, err := w.constructAll(c)
	if err != nil {
		return err
	}
	defer srv.close()
	for i := 0; i < w.warmFrames; i++ {
		c.frameOn(srv, nil)
	}
	fmt.Printf("devices live after warm-up: %d of %d\n", srv.pool.Live(), srv.pool.Size())

	out := output{Metrics: map[string]metric{}}
	d := time.Duration(seconds) * time.Second
	if traced {
		err = traceRun(w, c, srv, setups, byFirst, d, seed, &out)
	} else {
		endToEnd(c, srv, setups, d, &out)
	}
	if err != nil {
		return err
	}
	show("fail_frac", float64(c.failed)/float64(max(c.attempted, 1)), "frac",
		fmt.Sprintf("(%d of %d requests, every phase)", c.failed, c.attempted))
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	if err := out.matches(want); err != nil {
		return err
	}
	out.Attempted, out.Failed = c.attempted, c.failed
	out.Correct = c.attempted > 0 && c.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd serves the timed phase untraced and reports what a user sees.
func endToEnd(c *client, srv *server, setups []setupTiming, d time.Duration, out *output) {
	ph := c.run(srv, d)
	n := fmt.Sprintf("(n=%d samples)", ph.samples)
	out.add("throughput_sps", ph.throughput(), "1/s", fmt.Sprintf("(%d passed in %.3f s)", ph.passed, ph.wall.Seconds()))
	out.add("latency_p50_ms", ph.latencyMs(0.5), "ms", n)
	// The p90 is printed, not declared: on a shared host it follows the CPU
	// steal of other tenants, and its run-to-run spread exceeds any bound.
	show("latency_p90_ms", ph.latencyMs(0.9), "ms", n)
	out.add("cpu_ms_per_sample", ph.perSample(ms(ph.end.cpu-ph.start.cpu)), "ms", n)
	out.add("shots_per_sample", ph.shotsPerSample, "count", fmt.Sprintf("(first %d samples)", min(ph.samples, shotWindow)))
	out.add("alloc_kb_per_sample", ph.perSample(float64(ph.end.allocB-ph.start.allocB))/1024, "KiB", n)
	out.add("setup_s", medianMs(setups, func(t setupTiming) time.Duration { return t.total })/1e3, "s",
		fmt.Sprintf("(median of %d constructions)", len(setups)))
	fmt.Printf("host steal during the timed phase: %.1f%% of %d CPUs\n",
		100*(ph.end.steal-ph.start.steal).Seconds()/(ph.wall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
}

// traceRun reports the per-layer metrics. Its end-to-end figures serve
// only as the base of trace.overhead_frac.
func traceRun(w *workload, c *client, srv *server, setups []setupTiming, byFirst map[float64]int, d time.Duration, seed int64, out *output) error {
	plain := c.run(srv, d/2)

	tr := newTracer(byFirst)
	c.tr = tr
	srv.exec.tr.Store(tr)
	retried0 := jtc.RetriedShots()
	ph := c.run(srv, d/2)
	retried := jtc.RetriedShots() - retried0
	srv.exec.tr.Store(nil)
	c.tr = nil

	health := srv.sess.Health()
	counters := srv.pool.Counters()
	served := float64(max(health.Samples, 1))
	perK := func(v uint64) float64 { return float64(v) * 1000 / served }
	wait, self := tr.serveSplit()
	n := fmt.Sprintf("(n=%d requests)", len(wait))
	out.add("serve.wait_ms_p50", median(wait), "ms", n)
	out.add("serve.self_ms_p50", median(self), "ms", n)
	out.add("serve.batch_width", float64(ph.samples)/float64(max(ph.batches, 1)), "count", fmt.Sprintf("(%d batches)", ph.batches))
	out.add("serve.retries_per_1k", perK(health.Retries), "count/1k", "(since open)")
	out.add("serve.splits_per_1k", perK(health.BatchSplits), "count/1k", "(since open)")
	out.add("serve.failovers_per_1k", perK(health.Failovers), "count/1k", "(since open)")

	fwd := tr.forwardMs()
	out.add("pool.forward_ms_p50", median(fwd), "ms", fmt.Sprintf("(n=%d calls)", len(fwd)))
	busy := make([]float64, len(ph.busy))
	for i, b := range ph.busy {
		busy[i] = b.Seconds() / ph.wall.Seconds()
	}
	out.add("pool.busy_frac_min", slices.Min(busy), "frac", fmt.Sprintf("(%d devices)", len(busy)))
	out.add("pool.busy_frac_max", slices.Max(busy), "frac", "")
	out.add("pool.hedges_per_1k", perK(counters.Hedges), "count/1k", "(since open)")
	winFrac := 0.0
	if counters.Hedges > 0 {
		winFrac = float64(counters.HedgeWins) / float64(counters.Hedges)
	}
	out.add("pool.hedge_win_frac", winFrac, "frac", fmt.Sprintf("(%d of %d hedges)", counters.HedgeWins, counters.Hedges))
	out.add("pool.quarantines", float64(counters.Quarantines), "count", "(since open)")
	out.add("pool.probes", float64(counters.Probes), "count", "(since open)")
	out.add("pool.exhausted", float64(counters.Exhausted), "count", "(since open)")
	var faults uint64
	for _, dh := range srv.pool.DeviceHealth() {
		faults += dh.Faults
	}
	out.add("fault.device_faults", float64(faults), "count", "(faulted shards since open)")
	out.add("jtc.retried_shots_per_1k", float64(retried)*1000/float64(max(ph.samples, 1)), "count/1k", "")

	gcN := fmt.Sprintf("(untraced half, n=%d samples)", plain.samples)
	out.add("go.gc_cycles", plain.perSample(float64(plain.end.gcCycles-plain.start.gcCycles))*1000, "count/1k", gcN)
	out.add("go.gc_pause_ms", plain.perSample(float64(plain.end.gcPauseNs-plain.start.gcPauseNs)/1e6)*1000, "ms/1k", gcN)
	out.add("trace.overhead_frac", plain.throughput()/ph.throughput()-1, "frac",
		fmt.Sprintf("(%.1f untraced vs %.1f traced sps)", plain.throughput(), ph.throughput()))

	compile, err := w.compileTimes()
	if err != nil {
		return err
	}
	setupN := fmt.Sprintf("(median of %d)", len(setups))
	out.add("setup.open_ms", medianMs(setups, func(t setupTiming) time.Duration { return t.open }), "ms", setupN)
	out.add("setup.compile_ms", median(compile), "ms", setupN+" of the devices' compiles within open")
	out.add("setup.warm_ms", medianMs(setups, func(t setupTiming) time.Duration { return t.warm }), "ms", setupN)

	x := tensor.New(w.perDevice, 3, 32, 32)
	per := len(c.inputs[0].Data)
	for i := 0; i < w.perDevice; i++ {
		copy(x.Data[i*per:], c.inputs[i].Data)
	}
	steps, err := profileSteps(w, x, tr, stepBudget)
	if err != nil {
		return err
	}
	fmt.Printf("steps at batch %d on the first device (arch is the modeled comparison column):\n", w.perDevice)
	reportSteps(steps, out)

	path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", traceDir, w.name, seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Println("spans:", path)
	return nil
}

// reportSteps prints every step and reports the per-layer step metrics.
// The metric names hold for every workload's network: its first and last
// conv step, and sums over conv and other steps.
func reportSteps(steps []stepStat, out *output) {
	var convs []stepStat
	var totalMs, totalNs, convMs, kt float64
	for _, s := range steps {
		totalMs += s.ms
		totalNs += s.modelNs
		kt += s.ktransforms
		if s.kind == "conv" {
			convs = append(convs, s)
			convMs += s.ms
		}
	}
	for _, s := range steps {
		fmt.Printf("  nn.%-14s ms=%-10.4g share=%-6.3f alloc_kb=%-9.4g shots=%-8.6g ktransforms=%-4.3g arch.model_ns=%-6.4g arch.share=%.3f\n",
			s.name(), s.ms, s.ms/totalMs, s.allocKB, s.shots, s.ktransforms, s.modelNs, s.modelNs/totalNs)
	}
	for _, role := range []struct {
		name string
		s    stepStat
	}{{"conv-first", convs[0]}, {"conv-last", convs[len(convs)-1]}} {
		note := "(" + role.s.name() + ")"
		out.add("nn."+role.name+".ms", role.s.ms, "ms", note)
		out.add("nn."+role.name+".alloc_kb", role.s.allocKB, "KiB", note)
		out.add("jtc."+role.name+".shots", role.s.shots, "count", note+" per sample")
		out.add("arch."+role.name+".model_share", role.s.modelNs/totalNs, "frac", note+" modeled share of the network, not measured")
	}
	out.add("nn.convs.ms", convMs, "ms", fmt.Sprintf("(%d conv steps)", len(convs)))
	out.add("nn.cpu_steps.ms", totalMs-convMs, "ms", fmt.Sprintf("(%d other steps)", len(steps)-len(convs)))
	out.add("tiling.ktransforms", kt, "count", "(per sample, all steps)")
}

// compileTimes measures, setupRuns times, how long compiling the network
// onto every device of the pool takes: the share of pool.Open that is
// Network.Compile.
func (w *workload) compileTimes() ([]float64, error) {
	o, err := pool.ParseSpec(w.poolSpec)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		var total time.Duration
		for _, spec := range o.Specs {
			eng, err := backend.Open(spec)
			if err != nil {
				return nil, fmt.Errorf("open %q: %w", spec, err)
			}
			net := w.net()
			t0 := time.Now()
			if _, err := net.Compile(eng); err != nil {
				return nil, fmt.Errorf("compile onto %q: %w", spec, err)
			}
			total += time.Since(t0)
		}
		out = append(out, ms(total))
	}
	return out, nil
}
