package core

// Generated-input differential test of the planned batch kernel: for any
// drawable layer, the unplanned engine, the per-sample planned path, the
// full-layer batch forward and the channel-range shards stitched back
// together must agree bit for bit, and so must the whole-batch planned
// Conv2D (one calibration domain) and the unplanned call over the same
// batch. The checked-in corpus under testdata/fuzz replays on every plain
// `go test`; `go test -fuzz FuzzBatchKernels ./internal/core/` explores
// further.

import (
	"math/rand"
	"testing"

	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func FuzzBatchKernels(f *testing.F) {
	// draw packs three draws into one byte: readout noise (draw%3), the
	// detector ((draw/3)%3: linear, square-law, seeded noisy linear) and a
	// mask of samples rectified to non-negative values (draw/9), so one
	// batch mixes signed and non-negative samples.
	f.Fuzz(func(t *testing.T, seed int64, n, cin, cout, h, w, k, stride, nta, splits uint8, same, tiled bool, aperture uint16, draw uint8) {
		// Draws are folded into small bounds so one input stays cheap;
		// geometry the engine cannot run is rejected below, not here.
		tc := struct {
			n, cin, cout, h, w, k, stride, nta, splits, aperture int
			pad                                                  tensor.PadMode
			tiled                                                bool
			noise                                                float64
			detector, rectified                                  int
		}{
			n: 1 + int(n%4), cin: 1 + int(cin%5), cout: 1 + int(cout%6),
			h: 1 + int(h%14), w: 1 + int(w%14), k: 1 + int(k%7), stride: 1 + int(stride%3),
			pad: tensor.Valid, tiled: tiled, aperture: 4 + int(aperture%253),
			noise: 0.005 * float64(draw%3), detector: int(draw/3) % 3, rectified: int(draw / 9),
		}
		if same {
			tc.pad = tensor.Same
		}
		tc.nta = 1 + int(nta)%(tc.cin+1)
		tc.splits = 1 + int(splits)%tc.cout
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		per := tc.cin * tc.h * tc.w
		for b := 0; b < tc.n; b++ {
			if tc.rectified&(1<<b) == 0 {
				continue
			}
			for i, v := range x.Data[b*per : (b+1)*per] {
				x.Data[b*per+i] = max(v, 0)
			}
		}
		wt := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		wt.RandN(rng, 0.5)
		bias := make([]float64, tc.cout)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		engine := func() *Engine {
			e := NewEngine()
			e.UseTiledPath = tc.tiled
			e.NConv = tc.aperture
			e.NTA = tc.nta
			e.ReadoutNoise = tc.noise
			e.Parallelism = 2
			switch tc.detector {
			case 1:
				e.Detector = jtc.NewSquareLawDetector(0, 0)
			case 2:
				// Every engine starts the same sequential noise stream.
				e.Detector = jtc.NewLinearPowerDetector(0.01, 0.005, 7)
			}
			return e
		}
		mk := func() *LayerPlan {
			p, err := engine().PlanConv(wt, bias, tc.stride, tc.pad)
			if err != nil {
				t.Skipf("undrawable layer %+v: %v", tc, err)
			}
			return p.(*LayerPlan)
		}

		// Per-sample planned path: the oracle. A layer it cannot run is
		// undrawable; every other path must then run it too.
		single := mk()
		var want []float64
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*per : (b+1)*per]}
			ob, err := single.Conv2D(xb)
			if err != nil {
				t.Skipf("undrawable layer %+v: %v", tc, err)
			}
			want = append(want, ob.Data...)
		}
		unplanned := engine()
		for b := 0; b < tc.n; b++ {
			xb := &tensor.Tensor{Shape: []int{1, tc.cin, tc.h, tc.w}, Data: x.Data[b*per : (b+1)*per]}
			ob, err := unplanned.Conv2D(xb, wt, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatalf("%+v: unplanned sample %d: %v", tc, b, err)
			}
			base := b * len(ob.Data)
			for i, v := range ob.Data {
				if v != want[base+i] {
					t.Fatalf("%+v: unplanned sample %d elem %d: %v != planned %v", tc, b, i, v, want[base+i])
				}
			}
		}

		// Whole-batch legs: one planned Conv2D call treats the batch as one
		// calibration domain, exactly like one unplanned call. This is the
		// only batch leg a sequentially-noisy detector may run.
		if tc.n > 1 {
			whole, err := mk().Conv2D(x)
			if err != nil {
				t.Fatalf("%+v: whole-batch planned Conv2D: %v", tc, err)
			}
			ref, err := engine().Conv2D(x, wt, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatalf("%+v: whole-batch unplanned Conv2D: %v", tc, err)
			}
			for i, v := range ref.Data {
				if whole.Data[i] != v {
					t.Fatalf("%+v: whole-batch elem %d: planned %v != unplanned %v", tc, i, whole.Data[i], v)
				}
			}
		}
		if !single.BatchExact() {
			return
		}

		batch := mk()
		first := batch.ReserveCalls(uint64(tc.n)) + 1
		got, err := batch.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatalf("%+v: batch forward: %v", tc, err)
		}
		if len(got.Data) != len(want) {
			t.Fatalf("%+v: batch forward size %d, per-sample %d", tc, len(got.Data), len(want))
		}
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("%+v: batch forward elem %d: %v != per-sample %v", tc, i, got.Data[i], want[i])
			}
		}

		ranges := rangeSplits(tc.cout, tc.splits)
		runs := make([]nn.ChannelRangeRun, len(ranges))
		maxima := make([]nn.RangeMaxima, len(ranges))
		for i, r := range ranges {
			run, err := mk().BeginBatchRange(x, r[0], r[1], first, 1)
			if err != nil {
				t.Fatalf("%+v: begin range [%d,%d): %v", tc, r[0], r[1], err)
			}
			runs[i], maxima[i] = run, run.Maxima()
		}
		scales, err := nn.CombineRangeScales(maxima)
		if err != nil {
			t.Fatalf("%+v: combine: %v", tc, err)
		}
		plane := got.Shape[2] * got.Shape[3]
		for i, r := range ranges {
			part, err := runs[i].Finish(scales)
			if err != nil {
				t.Fatalf("%+v: finish range [%d,%d): %v", tc, r[0], r[1], err)
			}
			rc := r[1] - r[0]
			for b := 0; b < tc.n; b++ {
				dst := want[(b*tc.cout+r[0])*plane : (b*tc.cout+r[1])*plane]
				src := part.Data[b*rc*plane : (b+1)*rc*plane]
				for j := range src {
					if src[j] != dst[j] {
						t.Fatalf("%+v: range [%d,%d) sample %d elem %d: %v != per-sample %v", tc, r[0], r[1], b, j, src[j], dst[j])
					}
				}
			}
			tensor.PutScratch(part)
		}
		tensor.PutScratch(got)
	})
}
