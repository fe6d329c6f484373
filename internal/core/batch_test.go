package core

// Batch-major LayerPlan execution: ForwardBatchCalls must reproduce the
// per-sample planned path bit for bit — per-sample quantization scales,
// per-sample ADC calibration, per-sample keyed readout substreams — on both
// the direct and the tiled path, while the tiled path's packed shot
// schedule must never exceed (and, where the aperture has slack, must beat)
// the per-sample shot count. Both tables also pin the two behaviours only a
// whole-plane readout supports: the transient-misfire guard of a seeded
// shot-fault injector, and percentile ADC calibration.

import (
	"math/rand"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/tensor"
)

// shotFaults gives an engine a seeded shot-misfire injector when spec is
// non-empty; engines built with the same spec draw the same faults.
func shotFaults(t *testing.T, e *Engine, spec string) {
	t.Helper()
	if spec == "" {
		return
	}
	inj, err := fault.Parse(spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	e.Faults = inj
}

// checkShotFaultsFired fails a shot-fault case whose injector never fired,
// which would leave the misfire guard untested.
func checkShotFaultsFired(t *testing.T, e *Engine, spec string) {
	t.Helper()
	if spec != "" && e.Faults.Counters().ShotFaults == 0 {
		t.Fatalf("fault spec %q injected no shot misfires", spec)
	}
}

func TestForwardBatchCallsDirectBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct {
		n, cin, cout, h, w, k, stride int
		pad                           tensor.PadMode
		noise                         float64
		faults                        string
		pct                           float64
	}{
		{3, 3, 8, 16, 16, 3, 1, tensor.Same, 0, "", 0},
		{8, 5, 4, 12, 10, 3, 1, tensor.Valid, 0, "", 0},
		{4, 3, 6, 9, 9, 5, 2, tensor.Same, 0.01, "", 0},
		{1, 2, 3, 8, 8, 1, 1, tensor.Same, 0.005, "", 0},
		{3, 2, 4, 12, 12, 7, 1, tensor.Same, 0, "", 0}, // k > 5: heap tap scratch per worker
		{4, 3, 8, 12, 12, 3, 1, tensor.Same, 0.01, "shot:0.2", 0},
		{4, 3, 6, 10, 10, 3, 2, tensor.Same, 0.005, "", 0.99},
	} {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		bias := make([]float64, tc.cout)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		mk := func() *Engine {
			e := NewEngine()
			e.ReadoutNoise = tc.noise
			e.ADCCalibPercentile = tc.pct
			e.Parallelism = 4 // exercise the worker pool even on 1-CPU hosts
			shotFaults(t, e, tc.faults)
			return e
		}
		eA, eB := mk(), mk()
		pA, err := eA.PlanConv(w, bias, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := eB.PlanConv(w, bias, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		lpA := pA.(*LayerPlan)
		lpB := pB.(*LayerPlan)
		// oracle: per-sample loop
		var want []float64
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*tc.cin*tc.h*tc.w : (b+1)*tc.cin*tc.h*tc.w]}
			ob, err := lpA.Conv2D(xb)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ob.Data...)
		}
		first := lpB.ReserveCalls(uint64(tc.n)) + 1
		got, err := lpB.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want) {
			t.Fatalf("size %d vs %d", len(got.Data), len(want))
		}
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("case %+v: elem %d: %v != %v", tc, i, got.Data[i], want[i])
			}
		}
		checkShotFaultsFired(t, eA, tc.faults)
		checkShotFaultsFired(t, eB, tc.faults)
	}
}

func TestForwardBatchCallsTiledBitIdentityAndPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		n, cin, cout, h, w, k, nconv int
		pad                          tensor.PadMode
		noise                        float64
		packs                        bool
		faults                       string
		pct                          float64
	}{
		{3, 3, 4, 16, 16, 3, 256, tensor.Same, 0, true, "", 0},     // row tiling; leftover chunks pack
		{4, 2, 3, 12, 12, 3, 128, tensor.Valid, 0, true, "", 0},    // row tiling; flexible chunking packs
		{4, 2, 3, 10, 16, 3, 40, tensor.Valid, 0.01, true, "", 0},  // partial row tiling packs short passes
		{2, 2, 2, 6, 20, 3, 12, tensor.Valid, 0, false, "", 0},     // row partitioning: no slack
		{8, 3, 4, 16, 16, 3, 64, tensor.Same, 0.005, false, "", 0}, // full-aperture chunks: nothing to pack
		{4, 3, 5, 12, 12, 3, 128, tensor.Valid, 0.01, true, "shot:0.2", 0},
		{4, 2, 4, 12, 12, 3, 128, tensor.Valid, 0.005, true, "", 0.99},
	} {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		mk := func() *Engine {
			e := NewEngine()
			e.UseTiledPath = true
			e.NConv = tc.nconv
			e.ReadoutNoise = tc.noise
			e.ADCCalibPercentile = tc.pct
			shotFaults(t, e, tc.faults)
			return e
		}
		eA, eB := mk(), mk()
		pA, err := eA.PlanConv(w, nil, 1, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := eB.PlanConv(w, nil, 1, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		lpA, lpB := pA.(*LayerPlan), pB.(*LayerPlan)
		var want []float64
		shots0 := jtc.Shots()
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*tc.cin*tc.h*tc.w : (b+1)*tc.cin*tc.h*tc.w]}
			ob, err := lpA.Conv2D(xb)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ob.Data...)
		}
		perSampleShots := jtc.Shots() - shots0
		first := lpB.ReserveCalls(uint64(tc.n)) + 1
		shots1 := jtc.Shots()
		got, err := lpB.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		batchShots := jtc.Shots() - shots1
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("case %+v: elem %d: %v != %v", tc, i, got.Data[i], want[i])
			}
		}
		checkShotFaultsFired(t, eA, tc.faults)
		checkShotFaultsFired(t, eB, tc.faults)
		// Per-sample Conv2D runs the same packed schedule at n=1, so a plan
		// that packs within one sample (partial row tiling) packs its
		// per-sample baseline too. Packing is judged against the unpacked
		// per-sample count: the measured one scaled by the plan's
		// UnpackedShots/PackedShots ratio at n=1 (1 unless it packs).
		geo, err := lpA.geometry(tc.h, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		one, err := geo.tp.PlanBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		unpackedShots := perSampleShots * int64(one.UnpackedShots()) / int64(one.Shots())
		t.Logf("case %+v: per-sample shots %d (unpacked %d), packed batch shots %d", tc, perSampleShots, unpackedShots, batchShots)
		if batchShots > perSampleShots {
			t.Errorf("case %+v: packed schedule issued MORE shots: %d vs %d", tc, batchShots, perSampleShots)
		}
		if tc.packs && batchShots >= unpackedShots {
			t.Errorf("case %+v: packing bought nothing: %d vs %d unpacked", tc, batchShots, unpackedShots)
		}
	}
}

// TestConv2DShotsFollowPackedSchedule pins the one shot model: a tiled
// planned Conv2D advances jtc.Shots by the packed BatchPlan schedule of its
// calibration domain — PackedShots(n) apertures per (input channel,
// activation part, latched kernel) — so single calls and batches count
// shots the same way. perKernel pins PackedShots(n) itself where a regime
// packs within one sample (partial row tiling) or routes around
// quarantined dead aperture rows.
func TestConv2DShotsFollowPackedSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		name                      string
		n, cin, cout, h, w, nconv int
		pad                       tensor.PadMode
		faults                    string
		rectified                 bool
		perKernel                 int
	}{
		{"partial-rows-n1", 1, 2, 3, 10, 16, 40, tensor.Valid, "", false, 12},
		{"partial-rows-n4", 4, 2, 3, 10, 16, 40, tensor.Valid, "", false, 48},
		{"row-tiling-n3", 3, 3, 4, 16, 16, 256, tensor.Same, "", false, 0},
		{"row-tiling-rectified", 2, 3, 2, 16, 16, 256, tensor.Same, "", true, 0},
		{"dead-rows", 1, 3, 2, 32, 32, 256, tensor.Valid, "deadrow:1;deadrow:2", false, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
			x.RandN(rng, 1)
			parts := 2
			if tc.rectified {
				for i, v := range x.Data {
					x.Data[i] = max(v, 0)
				}
				parts = 1
			}
			wt := tensor.New(tc.cout, tc.cin, 3, 3)
			wt.RandN(rng, 0.5)
			e := NewEngine()
			e.UseTiledPath = true
			e.NConv = tc.nconv
			if tc.faults != "" {
				inj, err := fault.Parse(tc.faults, 1)
				if err != nil {
					t.Fatal(err)
				}
				e.Faults = inj
			}
			p, err := e.PlanConv(wt, nil, 1, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			lp := p.(*LayerPlan)
			geo, err := lp.geometry(tc.h, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			packed := geo.tp.PackedShots(tc.n)
			if tc.perKernel != 0 && packed != tc.perKernel {
				t.Fatalf("PackedShots(%d) = %d, want %d", tc.n, packed, tc.perKernel)
			}
			shots0 := jtc.Shots()
			if _, err := lp.Conv2D(x); err != nil {
				t.Fatal(err)
			}
			// Random weights carry both signs, so every output channel
			// latches two kernels per input channel.
			want := int64(tc.cin * parts * packed * 2 * tc.cout)
			if got := jtc.Shots() - shots0; got != want {
				t.Fatalf("Conv2D fired %d shots, want %d (%d per kernel)", got, want, packed)
			}
		})
	}
}

func benchLayer(b *testing.B, batchMajor bool, n, cin, cout, h, w, k int, relu bool) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(n, cin, h, w)
	x.RandN(rng, 1)
	if relu {
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	}
	wt := tensor.New(cout, cin, k, k)
	wt.RandN(rng, 0.5)
	e := NewEngine()
	p, err := e.PlanConv(wt, nil, 1, tensor.Same)
	if err != nil {
		b.Fatal(err)
	}
	lp := p.(*LayerPlan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batchMajor {
			first := lp.ReserveCalls(uint64(n)) + 1
			if _, err := lp.ForwardBatchCalls(x, first, 1); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := lp.Conv2D(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLayerBatchConv1PerBatchConv2D(b *testing.B) {
	benchLayer(b, false, 8, 3, 8, 32, 32, 3, false)
}
func BenchmarkLayerBatchConv1ForwardBatch(b *testing.B) {
	benchLayer(b, true, 8, 3, 8, 32, 32, 3, false)
}
func BenchmarkLayerBatchConv2PerBatchConv2D(b *testing.B) {
	benchLayer(b, false, 8, 8, 16, 16, 16, 3, true)
}
func BenchmarkLayerBatchConv2ForwardBatch(b *testing.B) {
	benchLayer(b, true, 8, 8, 16, 16, 16, 3, true)
}
