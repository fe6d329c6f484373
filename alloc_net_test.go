package photofourier

import (
	"math/rand"
	"testing"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// TestForwardBatchSteadyStateAllocs pins the allocation-free steady state of
// the batch-major tiled path: a warmed ForwardBatch of SmallCNN at batch 8
// must stay within a handful of allocations — the returned logits tensor the
// caller retains (struct, shape, data) plus the per-call batch context.
func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	if allocs := forwardBatchAllocs(t, "accelerator?tiled=true,workers=1", 8); allocs > 8 {
		t.Errorf("ForwardBatch steady state allocates %.1f/op, want <= 8", allocs)
	}
}

// TestForwardBatchSingleSampleAllocs pins the batch-1 steady state on both
// accelerator paths: a one-sample ForwardBatch runs every layer through the
// planned Conv2D, which is the pooled batch kernel with the sample as its
// one calibration domain.
func TestForwardBatchSingleSampleAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec      string
		maxAllocs float64
	}{
		{"accelerator?tiled=true,workers=1", 3},
		{"accelerator?workers=1", 5},
	} {
		if allocs := forwardBatchAllocs(t, tc.spec, 1); allocs > tc.maxAllocs {
			t.Errorf("%s: batch-1 ForwardBatch allocates %.1f/op, want <= %.0f", tc.spec, allocs, tc.maxAllocs)
		}
	}
}

// forwardBatchAllocs measures the steady-state allocations of one SmallCNN
// ForwardBatch of n samples on spec, after a warm-up batch has populated
// the geometry caches and scratch pools. Workers are pinned to 1 so the
// measurement excludes goroutine machinery and is deterministic across
// hosts.
func forwardBatchAllocs(t *testing.T, spec string, n int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items under -race; alloc gates run in non-race builds")
	}
	e, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.SmallCNN([2]int{8, 16}, 10, 7)
	plan, err := net.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	plan.Parallelism = 1
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(n, 3, 32, 32)
	x.RandN(rng, 1)
	if _, err := plan.ForwardBatch(x); err != nil { // warm geometry + pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := plan.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: ForwardBatch of %d allocates %.1f/op", spec, n, allocs)
	return allocs
}
