package core

// Channel-range execution: BeginBatchRange/Finish over disjoint output
// channel ranges, stitched back together, must reproduce ForwardBatchCalls
// bit for bit — same quantization, same combined ADC scales, same keyed
// readout substream positions — on the direct and tiled paths, with and
// without noise, per-channel detection, strided decimation, and
// elementwise faults.

import (
	"errors"
	"math/rand"
	"testing"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

type rangeCase struct {
	name                          string
	n, cin, cout, h, w, k, stride int
	pad                           tensor.PadMode
	bias                          bool
	tune                          func(e *Engine)
}

func rangeCases() []rangeCase {
	return []rangeCase{
		{name: "direct", n: 3, cin: 3, cout: 8, h: 12, w: 12, k: 3, stride: 1, pad: tensor.Same,
			tune: func(e *Engine) {}},
		{name: "direct-noisy", n: 4, cin: 3, cout: 6, h: 10, w: 10, k: 3, stride: 1, pad: tensor.Valid, bias: true,
			tune: func(e *Engine) { e.ReadoutNoise = 0.01 }},
		{name: "direct-perchannel", n: 2, cin: 4, cout: 5, h: 9, w: 9, k: 3, stride: 1, pad: tensor.Same,
			tune: func(e *Engine) { e.Detector = jtc.NewSquareLawDetector(0, 0) }},
		{name: "direct-strided-noisy", n: 3, cin: 3, cout: 7, h: 11, w: 11, k: 5, stride: 2, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.ReadoutNoise = 0.005; e.NTA = 2 }},
		{name: "tiled", n: 3, cin: 3, cout: 6, h: 12, w: 12, k: 3, stride: 1, pad: tensor.Same, bias: true,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 128 }},
		{name: "tiled-noisy", n: 4, cin: 2, cout: 5, h: 10, w: 14, k: 3, stride: 1, pad: tensor.Valid,
			tune: func(e *Engine) { e.UseTiledPath = true; e.NConv = 64; e.ReadoutNoise = 0.01 }},
		{name: "direct-drift-stuck", n: 3, cin: 3, cout: 6, h: 10, w: 10, k: 3, stride: 1, pad: tensor.Same, bias: true,
			tune: func(e *Engine) {
				inj, err := fault.Parse("drift:1e-3;probe:2;stuckbit:5", 11)
				if err != nil {
					panic(err)
				}
				e.Faults = inj
			}},
	}
}

func rangeSplits(cout, parts int) [][2]int {
	out := make([][2]int, 0, parts)
	lo := 0
	for d := 0; d < parts; d++ {
		hi := lo + (cout-lo)/(parts-d)
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}

func TestChannelRangeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range rangeCases() {
		x := tensor.New(tc.n, tc.cin, tc.h, tc.w)
		x.RandN(rng, 1)
		w := tensor.New(tc.cout, tc.cin, tc.k, tc.k)
		w.RandN(rng, 0.5)
		var bias []float64
		if tc.bias {
			bias = make([]float64, tc.cout)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}
		}
		mk := func() *LayerPlan {
			e := NewEngine()
			e.Parallelism = 4
			tc.tune(e)
			p, err := e.PlanConv(w, bias, tc.stride, tc.pad)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return p.(*LayerPlan)
		}
		ref := mk()
		first := ref.ReserveCalls(uint64(tc.n)) + 1
		want, err := ref.ForwardBatchCalls(x, first, 1)
		if err != nil {
			t.Fatalf("%s: full batch: %v", tc.name, err)
		}
		for _, parts := range []int{1, 2, 3} {
			splits := rangeSplits(tc.cout, parts)
			runs := make([]nn.ChannelRangeRun, len(splits))
			maxima := make([]nn.RangeMaxima, len(splits))
			for i, sp := range splits {
				lp := mk()
				run, err := lp.BeginBatchRange(x, sp[0], sp[1], first, 1)
				if err != nil {
					t.Fatalf("%s/%d: begin [%d,%d): %v", tc.name, parts, sp[0], sp[1], err)
				}
				runs[i] = run
				maxima[i] = run.Maxima()
			}
			scales, err := nn.CombineRangeScales(maxima)
			if err != nil {
				t.Fatalf("%s/%d: combine: %v", tc.name, parts, err)
			}
			got := tensor.New(want.Shape...)
			oh, ow := want.Shape[2], want.Shape[3]
			for i, sp := range splits {
				part, err := runs[i].Finish(scales)
				if err != nil {
					t.Fatalf("%s/%d: finish [%d,%d): %v", tc.name, parts, sp[0], sp[1], err)
				}
				rc := sp[1] - sp[0]
				for b := 0; b < tc.n; b++ {
					dst := got.Data[(b*tc.cout+sp[0])*oh*ow : (b*tc.cout+sp[1])*oh*ow]
					copy(dst, part.Data[b*rc*oh*ow:(b+1)*rc*oh*ow])
				}
				tensor.PutScratch(part)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s split into %d ranges: elem %d: %v != %v", tc.name, parts, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestChannelRangeRejections: configurations whose calibration or fault
// handling cannot decompose over channel ranges must refuse up front
// rather than silently diverge from single-engine execution.
func TestChannelRangeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(2, 3, 8, 8)
	x.RandN(rng, 1)
	w := tensor.New(4, 3, 3, 3)
	w.RandN(rng, 0.5)
	plan := func(tune func(e *Engine)) *LayerPlan {
		e := NewEngine()
		tune(e)
		p, err := e.PlanConv(w, nil, 1, tensor.Same)
		if err != nil {
			t.Fatal(err)
		}
		return p.(*LayerPlan)
	}
	if _, err := plan(func(e *Engine) { e.ADCCalibPercentile = 0.99 }).BeginBatchRange(x, 0, 2, 1, 1); err == nil {
		t.Fatal("percentile calibration must reject channel-range execution")
	}
	if _, err := plan(func(e *Engine) {
		inj, err := fault.Parse("shot:0.1", 3)
		if err != nil {
			t.Fatal(err)
		}
		e.Faults = inj
	}).BeginBatchRange(x, 0, 2, 1, 1); err == nil {
		t.Fatal("shot-fault guard must reject channel-range execution")
	}
	lp := plan(func(e *Engine) {})
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {0, 5}, {3, 1}} {
		if _, err := lp.BeginBatchRange(x, r[0], r[1], 1, 1); err == nil {
			t.Fatalf("range [%d,%d) must be rejected", r[0], r[1])
		}
	}
}

// TestChannelRangeFinishRejectsMalformedScales: combined scales come from
// the scheduler, so scales that do not cover the run's batch must come back
// as ErrShapeMismatch, never as an index panic.
func TestChannelRangeFinishRejectsMalformedScales(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := tensor.New(3, 2, 8, 8)
	x.RandN(rng, 1)
	w := tensor.New(4, 2, 3, 3)
	w.RandN(rng, 0.5)
	p, err := NewEngine().PlanConv(w, nil, 1, tensor.Same)
	if err != nil {
		t.Fatal(err)
	}
	lp := p.(*LayerPlan)
	begin := func() (nn.ChannelRangeRun, *nn.RangeScales) {
		run, err := lp.BeginBatchRange(x, 1, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		scales, err := nn.CombineRangeScales([]nn.RangeMaxima{run.Maxima()})
		if err != nil {
			t.Fatal(err)
		}
		if scales.Terms[termPosPos] == nil {
			t.Fatal("fixture lacks the (+x,+w) term")
		}
		return run, scales
	}
	for _, tc := range []struct {
		name string
		edit func(s *nn.RangeScales) *nn.RangeScales
	}{
		{"nil scales", func(*nn.RangeScales) *nn.RangeScales { return nil }},
		{"sample count", func(s *nn.RangeScales) *nn.RangeScales { s.Samples = 2; return s }},
		{"short term slice", func(s *nn.RangeScales) *nn.RangeScales {
			s.Terms[termPosPos] = s.Terms[termPosPos][:2]
			return s
		}},
		{"nil present term", func(s *nn.RangeScales) *nn.RangeScales { s.Terms[termPosPos] = nil; return s }},
	} {
		run, scales := begin()
		out, err := run.Finish(tc.edit(scales))
		if !errors.Is(err, nn.ErrShapeMismatch) {
			t.Errorf("%s: got (%v, %v), want an ErrShapeMismatch error", tc.name, out, err)
		}
		if _, err := run.Finish(scales); err == nil {
			t.Errorf("%s: a rejected Finish must still consume the run", tc.name)
		}
	}
	run, scales := begin()
	out, err := run.Finish(scales)
	if err != nil {
		t.Fatal(err)
	}
	tensor.PutScratch(out)
}
