// The batch kernel of a LayerPlan: one run covers output channels [ocLo,
// ocHi) of a batch in two phases — sweep/detect first (begin), readout
// second (finish). Its samples group into calibration domains: the samples
// that share one DAC scale, one presence flag pair, one ADC full scale per
// term, one engine call index and one readout substream per (term, group).
// The entry point fixes the grouping. Conv2D runs [0, cout) with the whole
// input as one domain (the unplanned call's semantics); ForwardBatchCalls
// runs [0, cout) with one domain per sample and derives every (term,
// sample) ADC full scale locally with hardwareScale. Output-channel
// sharding (nn.ChannelRangePlan)
// runs the same kernel over sub-ranges on several engines: BeginBatchRange
// exports the per-(term, sample, hardware-group) calibration maxima after
// phase one, and the scheduler hands the combined scales to Finish, so
// every range reads out against the SAME ADC full scale a single engine
// would have derived from the whole plane.
//
// Everything that keys noise or faults stays position-derived: the readout
// substream of (call, term, group) is the full plane's substream, and a
// range consuming channels [ocLo, ocHi) discards exactly ocLo*oh*ow leading
// Gaussian draws before reading its own elements, one draw per element, in
// plane order — the draws the single engine would have spent on the
// channels below the range. Drift and stuck-bit faults are elementwise
// given the (shared) scale and decompose trivially; the transient-misfire
// guard inspects whole-plane statistics and is therefore refused for a
// shard (BeginBatchRange errors when ShotRate > 0), as is percentile ADC
// calibration (a quantile does not decompose over channel ranges). The
// full-range run sees whole planes and supports both.
package core

import (
	"fmt"
	"math/rand"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// The cross-term count is part of the exchange format with nn.
var _ [nn.NumCrossTerms]struct{} = [numTerms]struct{}{}

var _ nn.ChannelRangePlan = (*LayerPlan)(nil)

// OutChannels implements nn.ChannelRangePlan.
func (lp *LayerPlan) OutChannels() int { return lp.cout }

// batchRangeRun is the in-flight state between the two phases: the
// quantized batch (whose per-sample activity flags gate readout), the
// range's detected partial sums, and (for a shard) the exported maxima.
// All buffers are pooled.
type batchRangeRun struct {
	lp         *LayerPlan
	n          int
	dn         int // samples per calibration domain: 1, or n for Conv2D (range [0, cout) only)
	ocLo, ocHi int
	oh, ow     int
	// Domain d draws its readout and fault substreams from call index
	// first + d*stride.
	first, stride uint64
	bp            *batchParts
	// ps.terms[term][gi] holds, after phase one, n*(ocHi-ocLo)*oh*ow
	// compacted plane values per merged operating group (sample-major); nil
	// for absent terms.
	ps   *psumSet
	mx   nn.RangeMaxima
	done bool
}

// BeginBatchRange implements nn.ChannelRangePlan: phase one of a
// channel-sharded batch forward over output channels [ocLo, ocHi), keyed
// exactly like ForwardBatchCalls(x, first, stride). The returned run holds
// the range's calibration maxima; readout completes in Finish once the
// scheduler has combined the maxima of every range.
func (lp *LayerPlan) BeginBatchRange(x *tensor.Tensor, ocLo, ocHi int, first, stride uint64) (nn.ChannelRangeRun, error) {
	e := lp.engine
	if p := e.ADCCalibPercentile; p > 0 && p < 1 {
		return nil, fmt.Errorf("core: percentile ADC calibration (%.3f) does not decompose over channel ranges", p)
	}
	if e.Faults != nil && e.Faults.ShotRate > 0 {
		return nil, fmt.Errorf("core: transient-misfire guard needs whole readout planes; cannot channel-shard with shot faults")
	}
	r := &batchRangeRun{}
	if err := r.begin(lp, x, ocLo, ocHi, first, stride, false); err != nil {
		return nil, err
	}
	r.exportMaxima()
	return r, nil
}

// begin validates a batch forward over output channels [ocLo, ocHi) and
// runs phase one. whole selects one calibration domain for the whole input,
// keyed by a call index begin reserves itself once the input is valid
// (first and stride are then unused); otherwise every sample is its own
// domain, keyed by first + b*stride. On error the run holds no pooled
// buffers.
func (r *batchRangeRun) begin(lp *LayerPlan, x *tensor.Tensor, ocLo, ocHi int, first, stride uint64, whole bool) error {
	e := lp.engine
	if lp.Stale() {
		return fmt.Errorf("core: %w: engine DAC/tiling config changed since PlanConv", nn.ErrStalePlan)
	}
	// A sequentially-noisy detector is consumed in one canonical order per
	// domain; only a single domain reproduces it.
	if !whole && !lp.BatchExact() {
		return fmt.Errorf("core: batch-major forward with a sequentially-noisy detector; run samples through Conv2D instead")
	}
	if e.NTA < 1 {
		return fmt.Errorf("core: NTA %d must be >= 1", e.NTA)
	}
	oh, ow, err := checkConvInput(x, lp.cin, lp.k, lp.pad)
	if err != nil {
		return err
	}
	if ocLo < 0 || ocHi <= ocLo || ocHi > lp.cout {
		return fmt.Errorf("core: channel range [%d,%d) out of [0,%d)", ocLo, ocHi, lp.cout)
	}
	n, dn := x.Shape[0], 1
	if whole {
		first, stride = e.calls.Add(1), 1
		dn = max(n, 1)
	}
	// Outage is monotonic in the call index, so the last domain's call
	// decides for every domain at once.
	if n > 0 {
		if err := e.checkOutage(first + uint64(n/dn-1)*stride); err != nil {
			return err
		}
	}
	*r = batchRangeRun{lp: lp, n: n, dn: dn, ocLo: ocLo, ocHi: ocHi, oh: oh, ow: ow, first: first, stride: stride}
	if lp.cfg.tiled {
		err = r.beginTiled(x)
	} else {
		err = r.beginDirect(x)
	}
	if err != nil {
		r.Release()
	}
	return err
}

// exportMaxima scans the compacted range planes into the run's raw
// calibration maxima: for every present term and active sample, the
// maximum absolute accumulated charge of each hardware group over the
// range. Summing the chunk's operating-group planes elementwise before the
// scan reproduces hardwareScale's accumulation exactly (restricted to the
// range's elements, over which the per-element sums are identical).
func (r *batchRangeRun) exportMaxima() {
	lp := r.lp
	rc := r.ocHi - r.ocLo
	plane := rc * r.oh * r.ow
	nGroups := len(lp.cachedGroups(lp.engine.NTA))
	per := lp.engine.hardwareGroupSize(lp.cin)
	hw := (nGroups + per - 1) / per
	r.mx = nn.RangeMaxima{Samples: r.n, Groups: hw}
	var acc []float64
	if per > 1 && nGroups > 1 {
		acc = getFloatsZeroed(plane)
		defer putFloats(acc)
	}
	for term := 0; term < numTerms; term++ {
		views := r.ps.terms[term]
		if views == nil {
			continue
		}
		maxima := make([]float64, r.n*hw)
		partHas := r.bp.partHas(term)
		for b := 0; b < r.n; b++ {
			if !partHas[b] {
				continue
			}
			for c := 0; c < hw; c++ {
				lo, hi := c*per, (c+1)*per
				if hi > nGroups {
					hi = nGroups
				}
				m := 0.0
				if hi-lo == 1 || nGroups == 1 {
					m = maxAbs(views[lo][b*plane : (b+1)*plane])
				} else {
					clear(acc)
					for gi := lo; gi < hi; gi++ {
						src := views[gi][b*plane : (b+1)*plane]
						for i, v := range src {
							acc[i] += v
						}
					}
					m = maxAbs(acc)
				}
				maxima[b*hw+c] = m
			}
		}
		r.mx.Terms[term] = maxima
	}
}

func maxAbs(data []float64) float64 {
	m := 0.0
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// beginDirect is phase one on the direct path: padded quantization of the
// FULL input (domain scales and activity are range-independent), a
// range-restricted store-first sweep, compaction of every active sample's
// planes in place (each row moves to an offset no greater than its own, so
// the forward copy never overwrites a row it has yet to read), detection of
// the compacted planes — so a noisy detector draws exactly as the unplanned
// path does, junk columns excluded — and per-channel merge where the
// detector wants it.
func (r *batchRangeRun) beginDirect(x *tensor.Tensor) error {
	lp, e := r.lp, r.lp.engine
	n, rc := r.n, r.ocHi-r.ocLo
	g := newPadGeom(x.Shape[2], x.Shape[3], lp.k, lp.pad)
	bp, err := quantizeBatchPadded(x, lp.cfg.dacBits, g, r.dn)
	if err != nil {
		return err
	}
	r.bp = bp

	var present [numTerms]bool
	present[termPosPos] = bp.pos != nil && lp.wpos != nil
	present[termPosNeg] = bp.pos != nil && lp.wneg != nil
	present[termNegPos] = bp.neg != nil && lp.wpos != nil
	present[termNegNeg] = bp.neg != nil && lp.wneg != nil

	groups := lp.cachedGroups(e.NTA)
	detGroups := groups
	perChannel := e.Detector.PerChannel()
	if perChannel {
		detGroups = lp.channelGroups()
	}
	workers := resolveWorkers(e.Parallelism)
	ps := newPsumSetUncleared(present, len(detGroups), n*rc*g.dstPlane)
	r.ps = ps
	if err := lp.sweepBatchDirect(bp, g, n, detGroups, ps, workers, r.ocLo, r.ocHi); err != nil {
		return err
	}

	plane := rc * r.oh * r.ow
	for term, bufs := range ps.terms {
		if bufs == nil {
			continue
		}
		partHas := bp.partHas(term)
		for _, buf := range bufs {
			for b := 0; b < n; b++ {
				if partHas[b] {
					compactPlanes(buf[b*plane:], buf[b*rc*g.dstPlane:], rc, r.oh, g.sd, r.ow)
				}
			}
		}
		if err := e.detectBuffers(bufs, n*plane, workers); err != nil {
			return err
		}
		if perChannel {
			ps.terms[term] = mergeGroups(bufs, groups, n*plane)
			releaseViewBuffers(bufs)
		}
	}
	return nil
}

// beginTiled is phase one on the tiled path: the range's psum buffers are
// already compact (oh*ow planes), so detection is all that follows the
// sweep.
func (r *batchRangeRun) beginTiled(x *tensor.Tensor) error {
	lp, e := r.lp, r.lp.engine
	n, rc := r.n, r.ocHi-r.ocLo
	h, w := x.Shape[2], x.Shape[3]
	flat := padGeom{h: h, w: w, sd: w, srcRows: h, srcPlane: h * w}
	bp, err := quantizeBatchPadded(x, lp.cfg.dacBits, flat, r.dn)
	if err != nil {
		return err
	}
	r.bp = bp
	geo, err := lp.geometry(h, w)
	if err != nil {
		return err
	}
	groups := lp.cachedGroups(e.NTA)
	workers := resolveWorkers(e.Parallelism)

	var present [numTerms]bool
	present[termPosPos] = bp.pos != nil && geo.kpos != nil
	present[termPosNeg] = bp.pos != nil && geo.kneg != nil
	present[termNegPos] = bp.neg != nil && geo.kpos != nil
	present[termNegNeg] = bp.neg != nil && geo.kneg != nil
	size := n * rc * r.oh * r.ow
	ps := newPsumSet(present, len(groups), size)
	r.ps = ps

	// Groups are the sweep's parallel axis; output channels split into
	// chunks only when groups are fewer than workers, since each extra
	// chunk re-transforms the shot signals that the arena inside
	// Conv2DPlannedAccumBatch otherwise shares across the whole range.
	// Every (group, chunk) item writes disjoint accumulators in an
	// unchanged addition order, so the bits never depend on the split. The
	// serial case loops directly so the dispatch closure never
	// materializes.
	sw := tiledSweep{lp: lp, bp: bp, ps: ps, geo: geo, n: n, ocLo: r.ocLo, rc: rc, plane: r.oh * r.ow}
	ocHi := r.ocHi
	chunks := min((workers+len(groups)-1)/len(groups), rc)
	per := (rc + chunks - 1) / chunks
	if workers <= 1 || len(groups)*chunks == 1 {
		for gi := range groups {
			if err := sw.group(groups[gi], gi, sw.ocLo, ocHi); err != nil {
				return err
			}
		}
	} else if err := parallelFor(len(groups)*chunks, workers, func(item int) error {
		gi, c0 := item/chunks, sw.ocLo+(item%chunks)*per
		if c0 >= ocHi {
			return nil
		}
		return sw.group(groups[gi], gi, c0, min(c0+per, ocHi))
	}); err != nil {
		return err
	}

	for _, bufs := range ps.terms {
		if bufs == nil {
			continue
		}
		if err := e.detectBuffers(bufs, size, workers); err != nil {
			return err
		}
	}
	return nil
}

// Maxima implements nn.ChannelRangeRun.
func (r *batchRangeRun) Maxima() nn.RangeMaxima { return r.mx }

// Finish implements nn.ChannelRangeRun: phase two of a shard, read out
// against the combined scales of every range. It consumes the run.
func (r *batchRangeRun) Finish(scales *nn.RangeScales) (*tensor.Tensor, error) {
	if scales == nil {
		r.Release()
		return nil, fmt.Errorf("core: %w: channel-range Finish without combined scales", nn.ErrShapeMismatch)
	}
	return r.finish(scales)
}

// checkScales verifies that combined scales cover every present term of
// the run's batch.
func (r *batchRangeRun) checkScales(scales *nn.RangeScales) error {
	if scales.Samples != r.n {
		return fmt.Errorf("core: %w: channel-range scales sized for %d samples, want %d", nn.ErrShapeMismatch, scales.Samples, r.n)
	}
	for term, bufs := range r.ps.terms {
		if bufs != nil && len(scales.Terms[term]) != r.n {
			return fmt.Errorf("core: %w: combined scales hold %d entries for present term %d, want %d",
				nn.ErrShapeMismatch, len(scales.Terms[term]), term, r.n)
		}
	}
	return nil
}

// finish is phase two, one calibration domain at a time: elementwise
// faults, position-derived keyed noise with the range's leading draws
// discarded, signed accumulation, bias, and stride decimation; it consumes
// the run. scales are a shard's combined per-(term, sample) ADC full
// scales; nil means the run covers whole planes and each scale comes from
// hardwareScale over the domain's own group planes, exactly as one
// unplanned call over the domain derives it. A domain's samples are
// contiguous, so its group planes are plain sub-slices of the buffers.
func (r *batchRangeRun) finish(scales *nn.RangeScales) (*tensor.Tensor, error) {
	if r.done {
		return nil, fmt.Errorf("core: channel-range run already finished")
	}
	defer r.Release()
	lp, e := r.lp, r.lp.engine
	n, rc := r.n, r.ocHi-r.ocLo
	if scales != nil {
		if err := r.checkScales(scales); err != nil {
			return nil, err
		}
	}
	plane := rc * r.oh * r.ow
	noise := e.ReadoutNoise > 0 && e.ADCBits > 0
	skip := r.ocLo * r.oh * r.ow
	out := tensor.GetScratchZeroed(n, rc, r.oh, r.ow)
	views := getViews(len(lp.cachedGroups(e.NTA)))
	defer putViews(views)
	for term, bufs := range r.ps.terms {
		if bufs == nil {
			continue
		}
		partHas := r.bp.partHas(term)
		sgn := termSign[term]
		for d0 := 0; d0 < n; d0 += r.dn {
			if !partHas[d0] {
				continue
			}
			d, d1 := d0/r.dn, d0+r.dn
			for gi := range views {
				views[gi] = bufs[gi][d0*plane : d1*plane]
			}
			var scale float64
			if scales != nil {
				scale = scales.Terms[term][d]
			} else {
				scale = e.hardwareScale(views, lp.cin)
			}
			callIdx := r.first + uint64(d)*r.stride
			outDomain := out.Data[d0*plane : d1*plane]
			if e.Faults != nil {
				for gi := range views {
					if err := e.applyGroupFaults(callIdx, term, gi, views[gi], scale); err != nil {
						tensor.PutScratch(out)
						return nil, err
					}
				}
			}
			for gi := range views {
				var rng *rand.Rand
				if noise {
					rng = e.readoutStream(callIdx, term, gi)
					for i := 0; i < skip; i++ {
						rng.NormFloat64()
					}
				}
				if err := e.readoutAccum(views[gi], scale, rng, sgn, outDomain); err != nil {
					tensor.PutScratch(out)
					return nil, err
				}
			}
		}
	}
	if lp.bias != nil {
		strideC := r.oh * r.ow
		for b := 0; b < n; b++ {
			for j := 0; j < rc; j++ {
				base := (b*rc + j) * strideC
				bias := lp.bias[r.ocLo+j]
				for i := 0; i < strideC; i++ {
					out.Data[base+i] += bias
				}
			}
		}
	}
	if lp.stride > 1 {
		s := lp.stride
		dec := tensor.GetScratch(n, rc, (r.oh+s-1)/s, (r.ow+s-1)/s)
		if err := tensor.Decimate2DInto(dec, out, s); err != nil {
			tensor.PutScratch(dec)
			tensor.PutScratch(out)
			return nil, err
		}
		tensor.PutScratch(out)
		return dec, nil
	}
	return out, nil
}

// Release implements nn.ChannelRangeRun: every pooled buffer returns to
// its pool; idempotent. The quantized inputs go back last, so the next
// batch's first requests (its own inputs) draw them again from the
// unbucketed float pool instead of dropping mismatched partial-sum buffers.
func (r *batchRangeRun) Release() {
	if r.done {
		return
	}
	r.done = true
	if r.ps != nil {
		r.ps.release()
		r.ps = nil
	}
	if r.bp != nil {
		r.bp.release()
		r.bp = nil
	}
}
