package pool

// Intra-sample execution: the channel-shard golden matrix (bit-identity
// to one engine across substrates, pool sizes, and nets — including keyed
// readout noise), outage degradation, and the decision log.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func assertSameData(t *testing.T, name string, r int, want, got *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: request %d: size %d vs %d", name, r, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: request %d diverged at %d: %v vs %v", name, r, i, got.Data[i], want.Data[i])
		}
	}
}

// TestChannelShardGoldenMatchesSingleEngine is the channel-shard
// acceptance matrix: {direct, tiled, noisy} substrates × pool {2,4} ×
// {SmallCNN, AlexNetS}, requests of batch 1 and 5, all bit-identical to
// one engine serving the same sequence. The combined-scale exchange and
// the skip-ahead readout substreams must be invisible.
func TestChannelShardGoldenMatchesSingleEngine(t *testing.T) {
	specs := []string{
		"accelerator?workers=1",
		"accelerator?tiled=true,workers=1",
		"accelerator-noisy?workers=1",
	}
	batches := []int{1, 5}
	for _, net := range poolNets() {
		for _, spec := range specs {
			eng, err := backend.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			single, err := net.Compile(eng)
			if err != nil {
				t.Fatal(err)
			}
			var wants []*tensor.Tensor
			for r, n := range batches {
				w, err := single.ForwardBatch(poolBatch(int64(300+r), n))
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, w)
			}
			for _, size := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/shard=channel/size=%d", net.Name, spec, size)
				p := mustPool(t, net, Options{Specs: repeatSpec(spec, size), Shard: ShardChannel})
				for r, n := range batches {
					got, err := p.ForwardBatch(poolBatch(int64(300+r), n))
					if err != nil {
						t.Fatalf("%s: request %d: %v", name, r, err)
					}
					assertSameData(t, name, r, wants[r], got)
				}
				p.Close()
			}
		}
	}
}

// TestChannelShardDeviceOutageDegrades: with a homogeneous channel-shard
// pool, an outage fails the request (the serve ladder retries), the
// device quarantines, and subsequent requests succeed on the surviving
// devices with unchanged results.
func TestChannelShardDeviceOutageDegrades(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	spec := "accelerator?workers=1,fault=outage:8,faultseed=3"
	p := mustPool(t, net, Options{
		Specs:               repeatSpec(spec, 3),
		Shard:               ShardChannel,
		QuarantineThreshold: 1,
		ProbeInterval:       time.Hour, // outage devices never readmit anyway
	})
	var sawErr bool
	for r := 0; r < 6; r++ {
		_, err := p.ForwardBatch(poolBatch(int64(40+r), 1))
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("outage at call 8 never surfaced over 6 requests")
	}
	if q := p.Counters().Quarantines; q == 0 {
		t.Fatal("faulting devices were never quarantined")
	}
}

// TestChannelShardRejectsHeterogeneousPool: channel ranges of one logical
// engine only make sense when every device holds the same weights, seed,
// and operating point.
func TestChannelShardRejectsHeterogeneousPool(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	_, err := New(net, Options{
		Specs: []string{"accelerator?workers=1", "accelerator?tiled=true,workers=1"},
		Shard: ShardChannel,
	})
	if !errors.Is(err, ErrBadPool) {
		t.Fatalf("heterogeneous channel pool: err %v, want ErrBadPool", err)
	}
	if _, err := New(net, Options{Specs: []string{"accelerator"}, Shard: "bogus"}); !errors.Is(err, ErrBadPool) {
		t.Fatalf("bogus shard strategy: err %v, want ErrBadPool", err)
	}
}

// TestDecisionLog: the debug flag emits one greppable line per
// device/shard assignment for every strategy.
func TestDecisionLog(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	for _, tc := range []struct {
		shard string
		want  []string
	}{
		{ShardSample, []string{"mode=sample", "dev=", "samples=["}},
		{ShardChannel, []string{"mode=channel", "oc=[", "first="}},
	} {
		var buf bytes.Buffer
		var mu sync.Mutex
		w := writerFunc(func(b []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(b)
		})
		p := mustPool(t, net, Options{
			Specs:       repeatSpec("accelerator?workers=1", 2),
			Shard:       tc.shard,
			Debug:       true,
			DecisionLog: w,
		})
		if _, err := p.ForwardBatch(poolBatch(7, 2)); err != nil {
			t.Fatalf("shard=%s: %v", tc.shard, err)
		}
		p.Close()
		mu.Lock()
		log := buf.String()
		mu.Unlock()
		for _, needle := range tc.want {
			if !strings.Contains(log, needle) {
				t.Errorf("shard=%s: decision log misses %q:\n%s", tc.shard, needle, log)
			}
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// TestSplitChannels pins the channel split: contiguous, near-even, never
// more parts than channels.
func TestSplitChannels(t *testing.T) {
	for _, tc := range []struct {
		cout, parts int
		want        [][2]int
	}{
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{7, 2, [][2]int{{0, 3}, {3, 7}}},
		{3, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, [][2]int{{0, 5}}},
	} {
		got := SplitChannels(tc.cout, tc.parts)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("SplitChannels(%d, %d) = %v, want %v", tc.cout, tc.parts, got, tc.want)
		}
	}
}

// TestStepMetasAndCosts pins the per-step profile a benchmark trace builds
// its modeled column from: step names, the geometry of every engine
// convolution, output shapes equal to StepShapes, and arch-model costs
// that are positive at exactly the convolution steps.
func TestStepMetasAndCosts(t *testing.T) {
	same := tensor.Same
	for _, tc := range []struct {
		net   *nn.Network
		names []string
		convs map[int]nn.ConvGeom
	}{
		{
			net:   nn.SmallCNN([2]int{8, 16}, 10, 99),
			names: []string{"conv(planned)", "relu", "maxpool", "conv(planned)", "relu", "maxpool", "globalavgpool", "dense"},
			convs: map[int]nn.ConvGeom{
				0: {Cin: 3, Cout: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: same},
				3: {Cin: 8, Cout: 16, H: 16, W: 16, K: 3, Stride: 1, Pad: same},
			},
		},
		{
			net:   nn.AlexNetS(10, 7),
			names: []string{"conv(planned)", "relu", "conv(planned)", "relu", "maxpool", "conv(planned)", "relu", "globalavgpool", "dense"},
			convs: map[int]nn.ConvGeom{
				0: {Cin: 3, Cout: 12, H: 32, W: 32, K: 5, Stride: 2, Pad: same},
				2: {Cin: 12, Cout: 24, H: 16, W: 16, K: 3, Stride: 1, Pad: same},
				5: {Cin: 24, Cout: 32, H: 8, W: 8, K: 3, Stride: 1, Pad: same},
			},
		},
	} {
		eng, err := backend.Open("accelerator?workers=1")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tc.net.Compile(eng)
		if err != nil {
			t.Fatal(err)
		}
		metas, err := plan.StepMetas(3, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := plan.StepShapes(3, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		costs := StepCosts(metas)
		if len(metas) != len(tc.names) || len(shapes) != len(metas) || len(costs) != len(metas) {
			t.Fatalf("%s: %d metas, %d shapes, %d costs, want %d steps", tc.net.Name, len(metas), len(shapes), len(costs), len(tc.names))
		}
		for i, m := range metas {
			if m.Name != tc.names[i] {
				t.Errorf("%s step %d: name %q, want %q", tc.net.Name, i, m.Name, tc.names[i])
			}
			want, isConv := tc.convs[i]
			switch {
			case isConv && (m.Conv == nil || *m.Conv != want):
				t.Errorf("%s step %d: conv %+v, want %+v", tc.net.Name, i, m.Conv, want)
			case !isConv && m.Conv != nil:
				t.Errorf("%s step %d: unexpected conv %+v", tc.net.Name, i, *m.Conv)
			}
			if fmt.Sprint(m.Out) != fmt.Sprint(shapes[i].Out) {
				t.Errorf("%s step %d: out %v, StepShapes %v", tc.net.Name, i, m.Out, shapes[i].Out)
			}
			if (costs[i] > 0) != isConv {
				t.Errorf("%s step %d (%s): cost %g", tc.net.Name, i, m.Name, costs[i])
			}
		}
	}
}
