package photofourier

import (
	"fmt"
	"math/rand"
	"testing"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// BenchmarkIntraBatch1 measures batch-1 latency under output-channel
// sharding (BENCH_10.json): one AlexNetS inference served by a single
// device and by channel sharding at pool {2,4}. ns/op is the measured
// batch-1 latency; the channel-shard speedup is single ns/op over
// channelN ns/op. The shards run as goroutines, so a host with fewer CPUs
// than devices serializes them and ns/op then shows scheduling overhead
// rather than device parallelism.
//
// arch-ns/sample is the arch performance model's end-to-end conv time for
// the same plan geometry (arch.EvalLayer summed over the engine
// convolutions), a modeled comparison column beside the measurement.
func BenchmarkIntraBatch1(b *testing.B) {
	dev := benchPoolDevice()
	rng := rand.New(rand.NewSource(45))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)

	eng, err := backend.Open(dev)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := nn.AlexNetS(10, 7).Compile(eng)
	if err != nil {
		b.Fatal(err)
	}
	metas, err := plan.StepMetas(x.Shape[1], x.Shape[2], x.Shape[3])
	if err != nil {
		b.Fatal(err)
	}
	costs := pool.StepCosts(metas)
	archNs := 0.0
	for _, c := range costs {
		archNs += c * 1e9
	}

	cases := []struct {
		name  string
		shard string
		size  int
	}{
		{"single", "", 1},
		{"channel2", "channel", 2},
		{"channel4", "channel", 4},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			spec := fmt.Sprintf("pool?quarantine=1,devices=%s*%d", dev, tc.size)
			if tc.shard != "" {
				spec = fmt.Sprintf("pool?shard=%s,quarantine=1,devices=%s*%d", tc.shard, dev, tc.size)
			}
			p, err := pool.Open(nn.AlexNetS(10, 7), spec)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if _, err := p.ForwardBatch(x); err != nil { // warm geometry + pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ForwardBatch(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(archNs, "arch-ns/sample")
			b.ReportMetric(float64(p.Live()), "live-devices")
		})
	}
}
