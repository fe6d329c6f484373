package core

import (
	"sync"

	"photofourier/internal/buf"
	"photofourier/internal/tiling"
)

// Pooled scratch for the batch-major tiled sweep: kernel-plan tables, the
// per-sample row-view tables, and the operand struct itself all recycle
// across calls so the steady state allocates nothing.
var (
	kernelPlanPool    buf.Pool[*tiling.KernelPlan]
	rowTabPool        buf.Pool[[][]float64]
	batchOperandsPool sync.Pool
)

// accTableFor builds one term's (sample, kernel) → accumulator-plane table
// over group gi for the cc output channels starting at channel off of
// buffers holding rc channel planes per sample; absent samples stay nil
// (skipped by the executor). The table comes from the views pool; callers
// release it with putViews.
func accTableFor(ps *psumSet, bp *batchParts, term, gi, n, cc, rc, off, plane int) [][]float64 {
	bufs := ps.terms[term]
	if bufs == nil {
		return nil
	}
	accs := getViewsZeroed(n * cc)
	partHas := bp.partHas(term)
	for b := 0; b < n; b++ {
		if !partHas[b] {
			continue
		}
		for j := 0; j < cc; j++ {
			at := (b*rc + off + j) * plane
			accs[b*cc+j] = bufs[gi][at : at+plane]
		}
	}
	return accs
}

// rowTableFor builds the per-sample row-view tables of one activation part:
// all[b] is an h-row window into the flat pooled backing, nil when the
// sample lacks the part. Returns the table and its backing for release.
func rowTableFor(part []float64, has []bool, n, h int) ([][][]float64, [][]float64) {
	if part == nil {
		return nil, nil
	}
	flat := getViews(n * h)
	all := rowTabPool.GetZeroed(n)
	for b := 0; b < n; b++ {
		if has[b] {
			all[b] = flat[b*h : (b+1)*h]
		}
	}
	return all, flat
}

// bindSampleRows repoints every present sample's row views at channel ic of
// part.
func bindSampleRows(all [][][]float64, part []float64, ic, n, cin, h, w int) [][][]float64 {
	if all == nil {
		return nil
	}
	for b := 0; b < n; b++ {
		rows := all[b]
		if rows == nil {
			continue
		}
		base := (b*cin + ic) * h * w
		for r := 0; r < h; r++ {
			rows[r] = part[base+r*w : base+(r+1)*w]
		}
	}
	return all
}

// tiledSweep is what the tiled sweep items of one run read. Items take it
// by value, so handing them to workers never moves the run to the heap.
type tiledSweep struct {
	lp       *LayerPlan
	bp       *batchParts
	ps       *psumSet
	geo      *layerGeo
	n        int
	ocLo, rc int // the run's output channel range [ocLo, ocLo+rc)
	plane    int // oh*ow
}

// group runs one operating group's batch-major sweep over output
// channels [c0, c1) of the run's range: pooled row/kernel/accumulator
// tables are bound, every input channel of the group walks the batched
// executor, and the scratch returns to its pools (abandoned to the GC on
// the exceptional error paths). Only those channels' kernels are
// correlated (and counted as shots), and each accumulator receives exactly
// the additions the full-plane executor would deliver to that (sample,
// channel) plane, in the same shot order.
//
// Every distinct (sample, channel, shot, activation part) signal is
// transformed to the frequency domain exactly once per call into the
// executor's spectrum arena and reused across every output channel of the
// call and both weight signs, and shot accounting runs on the packed
// BatchPlan schedule of the participating samples, so a batch advances
// jtc.Shots by strictly less than its samples run one by one whenever the
// aperture has slack to pack.
func (s tiledSweep) group(g [2]int, gi, c0, c1 int) error {
	bp, ps, geo, n := s.bp, s.ps, s.geo, s.n
	cin, h, w := s.lp.cin, geo.tp.H, geo.tp.W
	cc, off := c1-c0, c0-s.ocLo
	rowsPos, rowsPosFlat := rowTableFor(bp.pos, bp.hasPos, n, h)
	rowsNeg, rowsNegFlat := rowTableFor(bp.neg, bp.hasNeg, n, h)
	var kbufPos, kbufNeg []*tiling.KernelPlan
	if geo.kpos != nil {
		kbufPos = kernelPlanPool.Get(cc)
	}
	if geo.kneg != nil {
		kbufNeg = kernelPlanPool.Get(cc)
	}
	op, _ := batchOperandsPool.Get().(*tiling.BatchConvOperands)
	if op == nil {
		op = &tiling.BatchConvOperands{}
	}
	op.KPos, op.KNeg = kbufPos, kbufNeg
	for term := range op.Accs {
		op.Accs[term] = accTableFor(ps, bp, term, gi, n, cc, s.rc, off, s.plane)
	}
	for ic := g[0]; ic < g[1]; ic++ {
		op.Pos = bindSampleRows(rowsPos, bp.pos, ic, n, cin, h, w)
		op.Neg = bindSampleRows(rowsNeg, bp.neg, ic, n, cin, h, w)
		for j := range kbufPos {
			kbufPos[j] = geo.kpos[(c0+j)*cin+ic]
		}
		for j := range kbufNeg {
			kbufNeg[j] = geo.kneg[(c0+j)*cin+ic]
		}
		if err := geo.tp.Conv2DPlannedAccumBatch(op); err != nil {
			return err
		}
	}
	for i, accs := range op.Accs {
		if accs != nil {
			clear(accs)
			putViews(accs)
			op.Accs[i] = nil
		}
	}
	if rowsPosFlat != nil {
		clear(rowsPosFlat)
		putViews(rowsPosFlat)
		clear(rowsPos)
		rowTabPool.Put(rowsPos)
	}
	if rowsNegFlat != nil {
		clear(rowsNegFlat)
		putViews(rowsNegFlat)
		clear(rowsNeg)
		rowTabPool.Put(rowsNeg)
	}
	if kbufPos != nil {
		clear(kbufPos)
		kernelPlanPool.Put(kbufPos)
	}
	if kbufNeg != nil {
		clear(kbufNeg)
		kernelPlanPool.Put(kbufNeg)
	}
	*op = tiling.BatchConvOperands{}
	batchOperandsPool.Put(op)
	return nil
}
