package tiling

import (
	"math/rand"
	"testing"

	"photofourier/internal/tensor"
)

// TestConv2DPlannedAccumManyMatchesSingle pins the many-kernel batch
// executor, Conv2DPlannedAccumBatch, to independent planned convolutions
// bit for bit in every tiling regime: each shot spectrum is shared across
// every kernel of both weight signs and every sample, and each
// accumulator must still receive exactly Conv2DPlannedAccum's additions.
// Sample 1 lacks its negative part, exercising a skipped sample entry.
func TestConv2DPlannedAccumManyMatchesSingle(t *testing.T) {
	cases := []struct {
		name  string
		nconv int
		pad   tensor.PadMode
		mode  Mode
	}{
		{"row-tiling-same", 256, tensor.Same, RowTiling},
		{"row-tiling-valid", 256, tensor.Valid, RowTiling},
		{"partial-row-tiling", 40, tensor.Same, PartialRowTiling},
		{"row-partitioning", 10, tensor.Valid, RowPartitioning},
	}
	rng := rand.New(rand.NewSource(21))
	const h, w, k, nk, maxN = 14, 14, 3, 5, 3
	plane := func() [][]float64 {
		rows := make([][]float64, h)
		for r := range rows {
			rows[r] = make([]float64, w)
			for c := range rows[r] {
				rows[r][c] = rng.NormFloat64()
			}
		}
		return rows
	}
	var pos, neg [maxN][][]float64
	for b := 0; b < maxN; b++ {
		pos[b], neg[b] = plane(), plane()
	}
	kernel := func() [][]float64 {
		kern := make([][]float64, k)
		for r := range kern {
			kern[r] = make([]float64, k)
			for c := range kern[r] {
				kern[r][c] = rng.NormFloat64()
			}
		}
		return kern
	}
	var kpos, kneg [nk][][]float64
	for j := 0; j < nk; j++ {
		kpos[j], kneg[j] = kernel(), kernel()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(h, w, k, tc.nconv, tc.pad, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode != tc.mode {
				t.Fatalf("aperture %d selected %v, want %v", tc.nconv, p.Mode, tc.mode)
			}
			op := &BatchConvOperands{KPos: make([]*KernelPlan, nk), KNeg: make([]*KernelPlan, nk)}
			for j := 0; j < nk; j++ {
				if op.KPos[j], err = p.PlanKernel(kpos[j]); err != nil {
					t.Fatal(err)
				}
				if op.KNeg[j], err = p.PlanKernel(kneg[j]); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range []int{1, maxN} {
				op.Pos, op.Neg = pos[:n], append([][][]float64(nil), neg[:n]...)
				if n > 1 {
					op.Neg[1] = nil
				}
				// Accumulators start from a shared nonzero state so the
				// executor must add into them, not overwrite.
				var want [4][][]float64
				for term := range op.Accs {
					op.Accs[term] = make([][]float64, n*nk)
					want[term] = make([][]float64, n*nk)
					for i := range op.Accs[term] {
						seed := make([]float64, p.OutH*p.OutW)
						for e := range seed {
							seed[e] = float64(i + e)
						}
						op.Accs[term][i] = append([]float64(nil), seed...)
						want[term][i] = seed
					}
				}
				for b := 0; b < n; b++ {
					for j := 0; j < nk; j++ {
						for term, pair := range [4]struct {
							x  [][]float64
							kp *KernelPlan
						}{{op.Pos[b], op.KPos[j]}, {op.Pos[b], op.KNeg[j]}, {op.Neg[b], op.KPos[j]}, {op.Neg[b], op.KNeg[j]}} {
							if pair.x == nil {
								continue
							}
							if err := p.Conv2DPlannedAccum(pair.x, pair.kp, want[term][b*nk+j]); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if err := p.Conv2DPlannedAccumBatch(op); err != nil {
					t.Fatal(err)
				}
				for term := range want {
					for i := range want[term] {
						for e, v := range want[term][i] {
							if got := op.Accs[term][i][e]; got != v {
								t.Fatalf("n=%d term %d acc %d elem %d: batch %v != single %v", n, term, i, e, got, v)
							}
						}
					}
				}
			}
		})
	}
}

// TestConv2DPlannedAccumManyValidation covers the batch executor's error
// paths.
func TestConv2DPlannedAccumManyValidation(t *testing.T) {
	p, err := NewPlan(8, 8, 3, 64, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewPlan(10, 10, 3, 64, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	kern := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	kp, err := p.PlanKernel(kern)
	if err != nil {
		t.Fatal(err)
	}
	okp, err := other.PlanKernel(kern)
	if err != nil {
		t.Fatal(err)
	}
	input := make([][]float64, 8)
	for r := range input {
		input[r] = make([]float64, 8)
	}
	acc := make([]float64, p.OutH*p.OutW)
	for _, tc := range []struct {
		name string
		op   BatchConvOperands
	}{
		{"mismatched accumulator count", BatchConvOperands{Pos: [][][]float64{input}, KPos: []*KernelPlan{kp},
			Accs: [4][][]float64{{acc, acc}}}},
		{"foreign kernel plan", BatchConvOperands{Pos: [][][]float64{input}, KPos: []*KernelPlan{okp},
			Accs: [4][][]float64{{acc}}}},
		{"short accumulator", BatchConvOperands{Pos: [][][]float64{input}, KPos: []*KernelPlan{kp},
			Accs: [4][][]float64{{acc[:3]}}}},
		{"wrong input geometry", BatchConvOperands{Pos: [][][]float64{input[:5]}, KPos: []*KernelPlan{kp},
			Accs: [4][][]float64{{acc}}}},
	} {
		if err := p.Conv2DPlannedAccumBatch(&tc.op); err == nil {
			t.Errorf("%s should fail", tc.name)
		}
	}
	for _, op := range []BatchConvOperands{{}, {Pos: [][][]float64{input}}} {
		if err := p.Conv2DPlannedAccumBatch(&op); err != nil {
			t.Errorf("empty batch or kernel set is a no-op, got %v", err)
		}
	}
}
