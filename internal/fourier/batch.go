// Lockstep batched transforms: the butterfly schedule of a cached plan runs
// ONCE while up to LockstepWidth independent signals ride through it
// together. The work planes are bin-major split re/im float64 slices (bin k
// of lane s lives at k*LockstepWidth+s), so the innermost loops walk
// unit-stride lanes through fixed-size array pointers — no complex128
// shuffling, no bounds checks, no per-slot getComplex/putComplex round
// trips. The engine always runs at full width; ragged groups zero-fill the
// unused lanes (lanes are data-independent, so spare lanes transforming
// zeros cannot disturb live ones, and zero filling keeps recycled planes
// free of denormal garbage).
//
// Bit-identity: every lane executes the exact floating-point instruction
// sequence of the scalar path — each complex op is spelled out in the split
// form the compiler lowers it to (x*y -> xr*yr-xi*yi, xr*yi+xi*yr),
// including the inverse normalization's full four-multiply form (so -0
// signs survive). Interleaving lanes changes only the order BETWEEN
// independent lanes, never the op sequence WITHIN a lane, so batched output
// is bit-identical to per-slot transforms.
package fourier

import (
	"fmt"

	"photofourier/internal/buf"
)

// LockstepWidth is the number of lanes a batched transform processes per
// lockstep pass. Larger groups amortize twiddle loads and loop overhead
// across more lanes but grow the working set (two float64 planes of
// bins*width each); 8 keeps the planes inside L2 for the conv-path FFT
// lengths while giving the out-of-order core eight independent dependency
// chains per butterfly.
const LockstepWidth = 8

// lw is the internal shorthand; the inner loops index *[lw]float64 rows so
// the compiler sees constant trip counts and elides every bounds check.
const lw = LockstepWidth

// lanePool recycles the bin-major work planes of lockstep passes, bucketed
// by size so different plan lengths do not thrash one pool.
var lanePool buf.SizedPool[float64]

func getLane(n int) []float64 { return lanePool.Get(n) }
func putLane(s []float64)     { lanePool.Put(s) }

// row returns bin k's lane row of a bin-major plane as a fixed-size array
// pointer.
func row(p []float64, k int) *[lw]float64 {
	return (*[lw]float64)(p[k*lw:])
}

// zeroLaneTail clears lanes [w, lw) of the first rows bins of a bin-major
// plane, so ragged groups never process recycled (possibly denormal)
// garbage in their spare lanes.
func zeroLaneTail(p []float64, rows, w int) {
	if w >= lw {
		return
	}
	for k := 0; k < rows; k++ {
		r := row(p, k)
		for s := w; s < lw; s++ {
			r[s] = 0
		}
	}
}

// lockstepTransform runs the plan's radix-2 schedule over lw lanes stored
// bin-major in split planes re/im (length n*lw). It replicates
// Plan.transform stage by stage — bit-reversal swaps, the fused size-2/4
// stage, fused radix-4-style stage pairs, the final odd radix-2 stage, and
// the inverse normalization — with each complex operation expanded to the
// exact float sequence the scalar path executes.
func (p *Plan) lockstepTransform(re, im []float64, inverse bool) {
	n := p.n
	bitrevSwap(re, im, p.rev)
	tw := p.twiddle
	if inverse {
		tw = p.twiddleInv
	}
	if n >= 4 {
		fusedFirst(re, im, n, inverse)
	} else if n == 2 {
		r0, i0 := row(re, 0), row(im, 0)
		r1, i1 := row(re, 1), row(im, 1)
		for s := 0; s < lw; s++ {
			ar, ai := r0[s], i0[s]
			br, bi := r1[s], i1[s]
			r0[s], i0[s] = ar+br, ai+bi
			r1[s], i1[s] = ar-br, ai-bi
		}
	}
	size := 8
	for ; size<<1 <= n; size <<= 2 {
		fusedPair(re, im, tw, n, size)
	}
	if size <= n {
		final2(re, im, tw, n)
	}
	if inverse {
		// Replicates x[i] *= complex(1/n, 0) exactly: the scalar complex
		// multiply computes xr*c - xi*0 and xr*0 + xi*c, whose zero terms
		// matter for the sign of zero results.
		invNormalize(re, im, n*lw, 1/float64(n))
	}
}

// bitrevSwapGeneric is the portable bit-reversal row permutation.
func bitrevSwapGeneric(re, im []float64, rev []int) {
	for i, j := range rev {
		if i < j {
			ri, rj := row(re, i), row(re, j)
			qi, qj := row(im, i), row(im, j)
			for s := 0; s < lw; s++ {
				ri[s], rj[s] = rj[s], ri[s]
				qi[s], qj[s] = qj[s], qi[s]
			}
		}
	}
}

// invNormalizeGeneric is the portable inverse normalization over total
// contiguous plane entries, preserving the scalar path's zero-sign terms.
func invNormalizeGeneric(re, im []float64, total int, c float64) {
	re = re[:total:total]
	im = im[:total:total]
	for idx := 0; idx < total; idx++ {
		xr, xi := re[idx], im[idx]
		re[idx] = xr*c - xi*0
		im[idx] = xr*0 + xi*c
	}
}

// fusedFirstGeneric is the portable fused size-2/4 first stage (lanes
// innermost over the bin-major planes). The amd64 build replaces the
// dispatch target with a packed SSE2 kernel computing the identical
// per-lane float sequence.
func fusedFirstGeneric(re, im []float64, n int, inverse bool) {
	{
		for i := 0; i < n; i += 4 {
			ra, ia := row(re, i), row(im, i)
			rb, ib := row(re, i+1), row(im, i+1)
			rc, ic := row(re, i+2), row(im, i+2)
			rd, id := row(re, i+3), row(im, i+3)
			if inverse {
				for s := 0; s < lw; s++ {
					ar, ai := ra[s], ia[s]
					br, bi := rb[s], ib[s]
					cr, ci := rc[s], ic[s]
					dr, di := rd[s], id[s]
					abr, abi := ar+br, ai+bi
					sbr, sbi := ar-br, ai-bi
					cdr, cdi := cr+dr, ci+di
					sdr, sdi := cr-dr, ci-di
					rotr, roti := -sdi, sdr
					ra[s], ia[s] = abr+cdr, abi+cdi
					rc[s], ic[s] = abr-cdr, abi-cdi
					rb[s], ib[s] = sbr+rotr, sbi+roti
					rd[s], id[s] = sbr-rotr, sbi-roti
				}
			} else {
				for s := 0; s < lw; s++ {
					ar, ai := ra[s], ia[s]
					br, bi := rb[s], ib[s]
					cr, ci := rc[s], ic[s]
					dr, di := rd[s], id[s]
					abr, abi := ar+br, ai+bi
					sbr, sbi := ar-br, ai-bi
					cdr, cdi := cr+dr, ci+di
					sdr, sdi := cr-dr, ci-di
					rotr, roti := sdi, -sdr
					ra[s], ia[s] = abr+cdr, abi+cdi
					rc[s], ic[s] = abr-cdr, abi-cdi
					rb[s], ib[s] = sbr+rotr, sbi+roti
					rd[s], id[s] = sbr-rotr, sbi-roti
				}
			}
		}
	}
}

// fusedPairGeneric is the portable fused radix-4-style stage pair; the
// amd64 dispatch target is a packed SSE2 kernel with the identical
// per-lane float sequence.
func fusedPairGeneric(re, im []float64, tw []complex128, n, size int) {
	{
		half := size >> 1
		size2 := size << 1
		stepA := n / size
		stepB := stepA >> 1
		twB0 := tw[half*stepB]
		twB0r, twB0i := real(twB0), imag(twB0)
		for start := 0; start < n; start += size2 {
			// k = 0: stage-A and first stage-B twiddles are 1.
			r0, i0 := row(re, start), row(im, start)
			rh, ih := row(re, start+half), row(im, start+half)
			rs, is := row(re, start+size), row(im, start+size)
			rq, iq := row(re, start+size+half), row(im, start+size+half)
			for s := 0; s < lw; s++ {
				ar, ai := r0[s], i0[s]
				br, bi := rh[s], ih[s]
				cr, ci := rs[s], is[s]
				dr, di := rq[s], iq[s]
				a1r, a1i := ar+br, ai+bi
				b1r, b1i := ar-br, ai-bi
				c1r, c1i := cr+dr, ci+di
				d1r, d1i := cr-dr, ci-di
				r0[s], i0[s] = a1r+c1r, a1i+c1i
				rs[s], is[s] = a1r-c1r, a1i-c1i
				tBr := d1r*twB0r - d1i*twB0i
				tBi := d1r*twB0i + d1i*twB0r
				rh[s], ih[s] = b1r+tBr, b1i+tBi
				rq[s], iq[s] = b1r-tBr, b1i-tBi
			}
			for k := 1; k < half; k++ {
				wA := tw[k*stepA]
				wB1 := tw[k*stepB]
				wB2 := tw[(k+half)*stepB]
				wAr, wAi := real(wA), imag(wA)
				wB1r, wB1i := real(wB1), imag(wB1)
				wB2r, wB2i := real(wB2), imag(wB2)
				rka, ika := row(re, start+k), row(im, start+k)
				rkb, ikb := row(re, start+k+half), row(im, start+k+half)
				rkc, ikc := row(re, start+size+k), row(im, start+size+k)
				rkd, ikd := row(re, start+size+k+half), row(im, start+size+k+half)
				for s := 0; s < lw; s++ {
					ar, ai := rka[s], ika[s]
					br, bi := rkb[s], ikb[s]
					cr, ci := rkc[s], ikc[s]
					dr, di := rkd[s], ikd[s]
					tAr := br*wAr - bi*wAi
					tAi := br*wAi + bi*wAr
					a1r, a1i := ar+tAr, ai+tAi
					b1r, b1i := ar-tAr, ai-tAi
					tA2r := dr*wAr - di*wAi
					tA2i := dr*wAi + di*wAr
					c1r, c1i := cr+tA2r, ci+tA2i
					d1r, d1i := cr-tA2r, ci-tA2i
					tB1r := c1r*wB1r - c1i*wB1i
					tB1i := c1r*wB1i + c1i*wB1r
					rka[s], ika[s] = a1r+tB1r, a1i+tB1i
					rkc[s], ikc[s] = a1r-tB1r, a1i-tB1i
					tB2r := d1r*wB2r - d1i*wB2i
					tB2i := d1r*wB2i + d1i*wB2r
					rkb[s], ikb[s] = b1r+tB2r, b1i+tB2i
					rkd[s], ikd[s] = b1r-tB2r, b1i-tB2i
				}
			}
		}
	}
}

// final2Generic is the portable final radix-2 stage (runs only when log2 n
// is odd); the amd64 dispatch target is a packed SSE2 kernel with the
// identical per-lane float sequence.
func final2Generic(re, im []float64, tw []complex128, n int) {
	{
		half := n >> 1
		r0, i0 := row(re, 0), row(im, 0)
		rh, ih := row(re, half), row(im, half)
		for s := 0; s < lw; s++ {
			ar, ai := r0[s], i0[s]
			br, bi := rh[s], ih[s]
			r0[s], i0[s] = ar+br, ai+bi
			rh[s], ih[s] = ar-br, ai-bi
		}
		for k := 1; k < half; k++ {
			twk := tw[k]
			wr, wi := real(twk), imag(twk)
			rl, il := row(re, k), row(im, k)
			rk, ik := row(re, k+half), row(im, k+half)
			for s := 0; s < lw; s++ {
				ar, ai := rl[s], il[s]
				hr, hi := rk[s], ik[s]
				br := hr*wr - hi*wi
				bi := hr*wi + hi*wr
				rl[s], il[s] = ar+br, ai+bi
				rk[s], ik[s] = ar-br, ai-bi
			}
		}
	}
}

// lockstepRfft fills bin-major split planes sre/sim ((hm+1)*lw entries)
// with the half spectra of up to lw real signals (each length <= m; tails
// are zero-padded; nil and missing lanes transform zeros), running
// RealPlan.rfft's exact per-lane float sequence: pack, one lockstep inner
// transform, and the split-float twiddle recombination.
func (rp *RealPlan) lockstepRfft(sre, sim []float64, signals [][]float64) {
	hm := rp.hm
	w := len(signals)
	if w > lw {
		w = lw
	}
	for s := 0; s < w; s++ {
		x := signals[s]
		n2 := len(x) / 2
		if len(x) == rp.m {
			n2 = hm
		}
		j := 0
		for ; j < n2; j++ {
			sre[j*lw+s] = x[2*j]
			sim[j*lw+s] = x[2*j+1]
		}
		if len(x) != rp.m && len(x)%2 == 1 {
			sre[j*lw+s] = x[len(x)-1]
			sim[j*lw+s] = 0
			j++
		}
		for ; j < hm; j++ {
			sre[j*lw+s] = 0
			sim[j*lw+s] = 0
		}
	}
	zeroLaneTail(sre, hm, w)
	zeroLaneTail(sim, hm, w)
	rp.inner.lockstepTransform(sre[:hm*lw], sim[:hm*lw], false)
	rfftRecomb(sre, sim, rp.w, hm)
}

// rfftRecombGeneric is the portable post-transform recombination of the
// forward real transform (RealPlan.rfft's exact float sequence per lane).
func rfftRecombGeneric(sre, sim []float64, w []complex128, hm int) {
	r0, i0 := row(sre, 0), row(sim, 0)
	rH, iH := row(sre, hm), row(sim, hm)
	for s := 0; s < lw; s++ {
		z0r, z0i := r0[s], i0[s]
		rH[s], iH[s] = z0r-z0i, 0
		r0[s], i0[s] = z0r+z0i, 0
	}
	for k := 1; 2*k < hm; k++ {
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		rk, ik := row(sre, k), row(sim, k)
		rc, ic := row(sre, hm-k), row(sim, hm-k)
		for s := 0; s < lw; s++ {
			zkr, zki := rk[s], ik[s]
			zcr, zci := rc[s], ic[s]
			er := (zkr + zcr) / 2
			ei := (zki - zci) / 2
			or := (zki + zci) / 2
			oi := (zcr - zkr) / 2
			wor := or*wr - oi*wi
			woi := or*wi + oi*wr
			rk[s], ik[s] = er+wor, ei+woi
			rc[s], ic[s] = er-wor, woi-ei
		}
	}
	if hm >= 2 {
		imid := row(sim, hm/2)
		for s := 0; s < lw; s++ {
			imid[s] = -imid[s]
		}
	}
}

// lockstepIrfft reconstructs real signals from bin-major split half-
// spectrum planes ((hm+1)*lw entries, clobbered in place), writing each
// non-nil lane's prefix outs[s] exactly as RealPlan.irfft would.
func (rp *RealPlan) lockstepIrfft(sre, sim []float64, outs [][]float64) {
	hm := rp.hm
	irfftRecomb(sre, sim, rp.w, hm)
	rp.inner.lockstepTransform(sre[:hm*lw], sim[:hm*lw], true)
	for s := 0; s < len(outs) && s < lw; s++ {
		out := outs[s]
		if out == nil {
			continue
		}
		for j := 0; 2*j < len(out); j++ {
			out[2*j] = sre[j*lw+s]
			if 2*j+1 < len(out) {
				out[2*j+1] = sim[j*lw+s]
			}
		}
	}
}

// irfftRecombGeneric is the portable pre-transform recombination of the
// inverse real transform (RealPlan.irfft's exact float sequence per lane).
func irfftRecombGeneric(sre, sim []float64, w []complex128, hm int) {
	r0, i0 := row(sre, 0), row(sim, 0)
	rH, iH := row(sre, hm), row(sim, hm)
	for s := 0; s < lw; s++ {
		p0r, p0i := r0[s], i0[s]
		phr, phi := rH[s], iH[s]
		er := (p0r + phr) / 2
		ei := (p0i - phi) / 2
		dr := (p0r - phr) / 2
		di := (p0i + phi) / 2
		r0[s], i0[s] = er-di, ei+dr
	}
	for k := 1; 2*k < hm; k++ {
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		rk, ik := row(sre, k), row(sim, k)
		rc, ic := row(sre, hm-k), row(sim, hm-k)
		for s := 0; s < lw; s++ {
			pkr, pki := rk[s], ik[s]
			pcr, pci := rc[s], ic[s]
			er := (pkr + pcr) / 2
			ei := (pki - pci) / 2
			dr := (pkr - pcr) / 2
			di := (pki + pci) / 2
			or := dr*wr + di*wi
			oi := di*wr - dr*wi
			rk[s], ik[s] = er-oi, ei+or
			rc[s], ic[s] = er+oi, or-ei
		}
	}
	if hm >= 2 {
		imid := row(sim, hm/2)
		for s := 0; s < lw; s++ {
			imid[s] = -imid[s]
		}
	}
}

// TransformBatch computes the forward DFT of every non-nil row in lockstep
// groups of up to LockstepWidth. Each row must have the plan length; results
// are bit-identical to calling Transform on each row.
func (p *Plan) TransformBatch(rows [][]complex128) error {
	return p.transformBatch(rows, false)
}

// InverseBatch computes the normalized inverse DFT of every non-nil row in
// lockstep, bit-identical to per-row Inverse.
func (p *Plan) InverseBatch(rows [][]complex128) error {
	return p.transformBatch(rows, true)
}

func (p *Plan) transformBatch(rows [][]complex128, inverse bool) error {
	for i, r := range rows {
		if r != nil && len(r) != p.n {
			return fmt.Errorf("fourier: batch row %d length %d does not match plan length %d", i, len(r), p.n)
		}
	}
	var lanes [lw][]complex128
	nl := 0
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		re := getLane(p.n * lw)
		im := getLane(p.n * lw)
		for s := 0; s < w; s++ {
			for k, v := range lanes[s] {
				re[k*lw+s] = real(v)
				im[k*lw+s] = imag(v)
			}
		}
		zeroLaneTail(re, p.n, w)
		zeroLaneTail(im, p.n, w)
		p.lockstepTransform(re, im, inverse)
		for s := 0; s < w; s++ {
			r := lanes[s]
			for k := range r {
				r[k] = complex(re[k*lw+s], im[k*lw+s])
			}
		}
		putLane(re)
		putLane(im)
	}
	for _, r := range rows {
		if r == nil {
			continue
		}
		lanes[nl] = r
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// TransformBatch computes the forward chirp-z DFT of every non-nil row in
// lockstep: one chirp modulation, one lockstep inner convolution, one
// demodulation, bit-identical per row to Transform.
func (bp *BluesteinPlan) TransformBatch(rows [][]complex128) error {
	for i, r := range rows {
		if r != nil && len(r) != bp.n {
			return fmt.Errorf("fourier: batch row %d length %d does not match bluestein plan length %d", i, len(r), bp.n)
		}
	}
	var lanes [lw][]complex128
	nl := 0
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		re := getLane(bp.m * lw)
		im := getLane(bp.m * lw)
		chirp := bp.chirp
		for s := 0; s < w; s++ {
			for k, v := range lanes[s] {
				c := chirp[k]
				xr, xi := real(v), imag(v)
				cr, ci := real(c), imag(c)
				re[k*lw+s] = xr*cr - xi*ci
				im[k*lw+s] = xr*ci + xi*cr
			}
			for k := bp.n; k < bp.m; k++ {
				re[k*lw+s] = 0
				im[k*lw+s] = 0
			}
		}
		zeroLaneTail(re, bp.m, w)
		zeroLaneTail(im, bp.m, w)
		bp.inner.lockstepTransform(re, im, false)
		fb := bp.fb
		for k := 0; k < bp.m; k++ {
			f := fb[k]
			fr, fi := real(f), imag(f)
			rr, ri := row(re, k), row(im, k)
			for s := 0; s < lw; s++ {
				ar, ai := rr[s], ri[s]
				rr[s] = ar*fr - ai*fi
				ri[s] = ar*fi + ai*fr
			}
		}
		bp.inner.lockstepTransform(re, im, true)
		for s := 0; s < w; s++ {
			r := lanes[s]
			for k := range r {
				c := chirp[k]
				cr, ci := real(c), imag(c)
				ar, ai := re[k*lw+s], im[k*lw+s]
				r[k] = complex(ar*cr-ai*ci, ar*ci+ai*cr)
			}
		}
		putLane(re)
		putLane(im)
	}
	for _, r := range rows {
		if r == nil {
			continue
		}
		lanes[nl] = r
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// InverseBatch computes the normalized inverse chirp-z DFT of every non-nil
// row in lockstep, bit-identical per row to Inverse.
func (bp *BluesteinPlan) InverseBatch(rows [][]complex128) error {
	for _, r := range rows {
		for i, v := range r {
			r[i] = complex(real(v), -imag(v))
		}
	}
	if err := bp.TransformBatch(rows); err != nil {
		return err
	}
	invN := 1 / float64(bp.n)
	for _, r := range rows {
		for i, v := range r {
			r[i] = complex(real(v)*invN, -imag(v)*invN)
		}
	}
	return nil
}

// BatchRealPlan runs a RealPlan's forward and inverse transforms over many
// signals in lockstep. It is a stateless view over the process-wide cached
// RealPlan (scratch comes from pools), so one BatchRealPlan may be shared
// freely across goroutines.
type BatchRealPlan struct {
	rp *RealPlan
}

// NewBatchRealPlan returns the lockstep batched transform engine for even
// power-of-two length m >= 2, backed by the process-wide cached RealPlan.
func NewBatchRealPlan(m int) (*BatchRealPlan, error) {
	rp, err := RealPlanFor(m)
	if err != nil {
		return nil, err
	}
	return &BatchRealPlan{rp: rp}, nil
}

// N returns the transform length.
func (bp *BatchRealPlan) N() int { return bp.rp.m }

// HalfSpectrumLen returns the number of non-redundant bins, m/2+1.
func (bp *BatchRealPlan) HalfSpectrumLen() int { return bp.rp.hm + 1 }

// Transform computes the half spectrum of every non-nil signals[i] into
// specs[i], processing up to LockstepWidth signals per lockstep pass. Each
// result is bit-identical to RealPlan.Transform on that signal.
func (bp *BatchRealPlan) Transform(signals [][]float64, specs [][]complex128) error {
	rp := bp.rp
	if len(specs) < len(signals) {
		return fmt.Errorf("fourier: %d spectra for %d signals", len(specs), len(signals))
	}
	for i, x := range signals {
		if x == nil {
			continue
		}
		if len(x) > rp.m {
			return fmt.Errorf("fourier: batch signal %d length %d exceeds plan length %d", i, len(x), rp.m)
		}
		if len(specs[i]) != rp.hm+1 {
			return fmt.Errorf("fourier: batch spectrum %d length %d, plan needs %d", i, len(specs[i]), rp.hm+1)
		}
	}
	var lanes [lw][]float64
	var dsts [lw][]complex128
	nl := 0
	bins := rp.hm + 1
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		sre := getLane(bins * lw)
		sim := getLane(bins * lw)
		rp.lockstepRfft(sre, sim, lanes[:w])
		for s := 0; s < w; s++ {
			spec := dsts[s]
			for k := range spec {
				spec[k] = complex(sre[k*lw+s], sim[k*lw+s])
			}
		}
		putLane(sre)
		putLane(sim)
	}
	for i, x := range signals {
		if x == nil {
			continue
		}
		lanes[nl] = x
		dsts[nl] = specs[i]
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// Inverse reconstructs, for every non-nil specs[i], the real signal into
// outs[i] (length <= m: only that prefix is written), bit-identical to
// RealPlan.Inverse. Unlike the scalar path the input spectra are left
// untouched (the inverse recombination runs on lockstep work planes).
func (bp *BatchRealPlan) Inverse(specs [][]complex128, outs [][]float64) error {
	rp := bp.rp
	if len(outs) < len(specs) {
		return fmt.Errorf("fourier: %d outputs for %d spectra", len(outs), len(specs))
	}
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		if len(spec) != rp.hm+1 {
			return fmt.Errorf("fourier: batch spectrum %d length %d, plan needs %d", i, len(spec), rp.hm+1)
		}
		if len(outs[i]) > rp.m {
			return fmt.Errorf("fourier: batch output %d length %d exceeds plan length %d", i, len(outs[i]), rp.m)
		}
	}
	var lanes [lw][]complex128
	var dsts [lw][]float64
	nl := 0
	bins := rp.hm + 1
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		sre := getLane(bins * lw)
		sim := getLane(bins * lw)
		for s := 0; s < w; s++ {
			for k, v := range lanes[s] {
				sre[k*lw+s] = real(v)
				sim[k*lw+s] = imag(v)
			}
		}
		zeroLaneTail(sre, bins, w)
		zeroLaneTail(sim, bins, w)
		rp.lockstepIrfft(sre, sim, dsts[:w])
		putLane(sre)
		putLane(sim)
	}
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		lanes[nl] = spec
		dsts[nl] = outs[i]
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// TransformSlotsSoA computes the forward half-spectrum of every non-nil
// signals[i] into arena slot i, running the butterfly schedule once per
// lockstep group instead of once per slot. Bit-identical per slot to
// TransformSignalSoA.
func (cp *ConvPlan) TransformSlotsSoA(a *SpectrumArena, signals [][]float64) error {
	if a.bins != cp.SpectrumLen() {
		return fmt.Errorf("fourier: arena bins %d, plan needs %d", a.bins, cp.SpectrumLen())
	}
	live, last := 0, 0
	for i, signal := range signals {
		if signal == nil {
			continue
		}
		if len(signal) == 0 {
			return fmt.Errorf("fourier: conv plan signal %d is empty", i)
		}
		if len(signal) > cp.maxSig {
			return fmt.Errorf("fourier: signal %d length %d exceeds conv plan max %d", i, len(signal), cp.maxSig)
		}
		live, last = live+1, i
	}
	if live == 1 {
		// A lone signal would run the butterflies of a whole lockstep group
		// over zero lanes; the scalar transform gives the same bits for a
		// fraction of the work (single-sample planned convolutions).
		return cp.TransformSignalSoA(a, last, signals[last])
	}
	if cp.m == 1 {
		for i, signal := range signals {
			if signal == nil {
				continue
			}
			re, im := a.Slot(i)
			re[0], im[0] = signal[0], 0
		}
		return nil
	}
	rp := cp.rp
	bins := rp.hm + 1
	var lanes [lw][]float64
	var slots [lw]int
	nl := 0
	flush := func() {
		w := nl
		nl = 0
		if w == 0 {
			return
		}
		sre := getLane(bins * lw)
		sim := getLane(bins * lw)
		rp.lockstepRfft(sre, sim, lanes[:w])
		for s := 0; s < w; s++ {
			re, im := a.Slot(slots[s])
			for k := 0; k < bins; k++ {
				re[k] = sre[k*lw+s]
				im[k] = sim[k*lw+s]
			}
		}
		putLane(sre)
		putLane(sim)
	}
	for i, signal := range signals {
		if signal == nil {
			continue
		}
		lanes[nl] = signal
		slots[nl] = i
		nl++
		if nl == lw {
			flush()
		}
	}
	flush()
	return nil
}

// ConvLane names one lane of a lockstep batched convolution: the arena slot
// planes holding a transformed signal spectrum, the kernel plan whose
// spectrum multiplies it, and the output buffer receiving the inverse
// transform.
type ConvLane struct {
	// Plan supplies the kernel spectrum. All lanes of one call must share
	// transform geometry (SharesTransform).
	Plan *ConvPlan
	// SpecRe and SpecIm are the slot's split spectrum planes, e.g. from
	// SpectrumArena.Slot — SpectrumLen entries each.
	SpecRe, SpecIm []float64
	// Dst receives the OutLen(sigLen) convolution samples.
	Dst []float64
}

// ConvolveLanesSoA completes many independent convolutions in lockstep
// groups of up to LockstepWidth: each lane's spectrum multiplies its plan's
// kernel spectrum and inverse-transforms into its Dst. Lanes may mix kernels
// and slots freely (e.g. every (kernel, sample) pair of one shot) as long as
// all plans share transform geometry. sigLen is the original signal length
// common to all lanes. Each lane's result is bit-identical to
// ConvolveSoAInto on that (slot, kernel) pair.
func ConvolveLanesSoA(sigLen int, lanes []ConvLane) error {
	if len(lanes) == 0 {
		return nil
	}
	ref := lanes[0].Plan
	if ref == nil {
		return fmt.Errorf("fourier: conv lane 0 has no plan")
	}
	if sigLen < 1 || sigLen > ref.maxSig {
		return fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, ref.maxSig)
	}
	bins := ref.SpectrumLen()
	for i := range lanes {
		l := &lanes[i]
		if l.Plan == nil || !ref.SharesTransform(l.Plan) {
			return fmt.Errorf("fourier: conv lane %d does not share transform geometry", i)
		}
		if len(l.SpecRe) != bins || len(l.SpecIm) != bins {
			return fmt.Errorf("fourier: conv lane %d spectrum planes %d/%d, plan needs %d bins", i, len(l.SpecRe), len(l.SpecIm), bins)
		}
		outLen := l.Plan.OutLen(sigLen)
		if len(l.Dst) < outLen {
			return fmt.Errorf("fourier: conv lane %d dst length %d < output length %d", i, len(l.Dst), outLen)
		}
	}
	if ref.m == 1 {
		for i := range lanes {
			l := &lanes[i]
			l.Dst[0] = l.SpecRe[0] * l.Plan.k0
		}
		return nil
	}
	for len(lanes) > 0 {
		w := len(lanes)
		if w > lw {
			w = lw
		}
		convolveLanesGroup(ref.rp, sigLen, lanes[:w])
		lanes = lanes[w:]
	}
	return nil
}

// convolveLanesGroup runs one lockstep group: the kernel-spectrum multiply
// gathers each lane's slot spectrum straight into the bin-major work planes
// (fusing what the scalar path does as sa[i] = spec[i]*kspec[i]), then one
// lockstep inverse real transform scatters into the lane outputs.
func convolveLanesGroup(rp *RealPlan, sigLen int, lanes []ConvLane) {
	w := len(lanes)
	bins := rp.hm + 1
	sre := getLane(bins * lw)
	sim := getLane(bins * lw)
	if w == lw {
		// Full-width fast path: lane pairs stream their spectra and kernel
		// spectra straight into the bin-major work planes.
		for p := 0; p < lw; p += 2 {
			l0, l1 := &lanes[p], &lanes[p+1]
			gatherMulPair(sre[p:], sim[p:], bins,
				l0.SpecRe, l0.SpecIm, l0.Plan.kspec,
				l1.SpecRe, l1.SpecIm, l1.Plan.kspec)
		}
	} else {
		for s := 0; s < w; s++ {
			l := &lanes[s]
			ar := l.SpecRe
			ai := l.SpecIm
			kspec := l.Plan.kspec
			for k := 0; k < bins; k++ {
				kv := kspec[k]
				kr, ki := real(kv), imag(kv)
				xr, xi := ar[k], ai[k]
				sre[k*lw+s] = xr*kr - xi*ki
				sim[k*lw+s] = xr*ki + xi*kr
			}
		}
		zeroLaneTail(sre, bins, w)
		zeroLaneTail(sim, bins, w)
	}
	var outs [lw][]float64
	for s := 0; s < w; s++ {
		outs[s] = lanes[s].Dst[:lanes[s].Plan.OutLen(sigLen)]
	}
	rp.lockstepIrfft(sre, sim, outs[:w])
	putLane(sre)
	putLane(sim)
}

// gatherMulPairGeneric is the portable kernel-spectrum multiply for two
// lanes: lane 0 writes dre/dim[k*lw], lane 1 writes dre/dim[k*lw+1], each
// running the exact complex multiply of the scalar path.
func gatherMulPairGeneric(dre, dim []float64, bins int, xr0, xi0 []float64, k0 []complex128, xr1, xi1 []float64, k1 []complex128) {
	for k := 0; k < bins; k++ {
		kv := k0[k]
		kr, ki := real(kv), imag(kv)
		xr, xi := xr0[k], xi0[k]
		dre[k*lw] = xr*kr - xi*ki
		dim[k*lw] = xr*ki + xi*kr
		kv = k1[k]
		kr, ki = real(kv), imag(kv)
		xr, xi = xr1[k], xi1[k]
		dre[k*lw+1] = xr*kr - xi*ki
		dim[k*lw+1] = xr*ki + xi*kr
	}
}

// ConvolveSlotsSoAInto completes one kernel's convolution against many arena
// slots in lockstep: slot slots[l]'s spectrum multiplies the plan's kernel
// spectrum and inverse-transforms into dst[l*dstStride:], whose first
// OutLen(sigLen) entries are written. Bit-identical per slot to
// ConvolveSoAInto.
func (cp *ConvPlan) ConvolveSlotsSoAInto(dst []float64, dstStride int, a *SpectrumArena, slots []int, sigLen int) error {
	if a.bins != cp.SpectrumLen() {
		return fmt.Errorf("fourier: arena bins %d, plan transform has %d bins", a.bins, cp.SpectrumLen())
	}
	if sigLen < 1 || sigLen > cp.maxSig {
		return fmt.Errorf("fourier: signal length %d out of plan range [1,%d]", sigLen, cp.maxSig)
	}
	outLen := cp.OutLen(sigLen)
	if dstStride < outLen {
		return fmt.Errorf("fourier: conv plan dst stride %d < output length %d", dstStride, outLen)
	}
	if len(slots) > 0 && len(dst) < (len(slots)-1)*dstStride+outLen {
		return fmt.Errorf("fourier: conv plan dst length %d < %d slots x stride %d", len(dst), len(slots), dstStride)
	}
	var lanes [lw]ConvLane
	nl := 0
	for li, slot := range slots {
		re, im := a.Slot(slot)
		lanes[nl] = ConvLane{Plan: cp, SpecRe: re, SpecIm: im, Dst: dst[li*dstStride : li*dstStride+outLen]}
		nl++
		if nl == lw {
			if err := ConvolveLanesSoA(sigLen, lanes[:nl]); err != nil {
				return err
			}
			nl = 0
		}
	}
	if nl > 0 {
		return ConvolveLanesSoA(sigLen, lanes[:nl])
	}
	return nil
}
