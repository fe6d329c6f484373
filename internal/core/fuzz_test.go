package core

// Generated-input differential test of the planned batch kernel: for any
// drawable layer, the unplanned engine, the per-sample planned path, the
// full-layer batch forward and the channel-range shards stitched back
// together must agree bit for bit. The checked-in corpus under
// testdata/fuzz replays on every plain `go test`;
// `go test -fuzz FuzzBatchKernels ./internal/core/` explores further.

import (
	"math/rand"
	"testing"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func FuzzBatchKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, cin, cout, h, w, k, stride, nta, splits uint8, same, tiled bool, aperture uint16, noise uint8) {
		// Draws are folded into small bounds so one input stays cheap;
		// geometry the engine cannot run is rejected below, not here.
		tc := struct {
			n, cin, cout, h, w, k, stride, nta, splits, aperture int
			pad                                                  tensor.PadMode
			tiled                                                bool
			noise                                                float64
		}{
			n: 1 + int(n%4), cin: 1 + int(cin%5), cout: 1 + int(cout%6),
			h: 1 + int(h%14), w: 1 + int(w%14), k: 1 + int(k%7), stride: 1 + int(stride%3),
			pad: tensor.Valid, tiled: tiled, aperture: 4 + int(aperture%253),
			noise: 0.005 * float64(noise%3),
		}
		if same {
			tc.pad = tensor.Same
		}
		tc.nta = 1 + int(nta)%(tc.cin+1)
		tc.splits = 1 + int(splits)%tc.cout
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
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
		per := tc.cin * tc.h * tc.w
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
