package core

import (
	"fmt"
	"sync"

	"photofourier/internal/tensor"
)

// Cross-term indices in canonical order. The four pseudo-negative cross
// terms recombine digitally as pp - pn - np + nn.
const (
	termPosPos = iota // +activations x +weights
	termPosNeg        // +activations x -weights
	termNegPos        // -activations x +weights
	termNegNeg        // -activations x -weights
	numTerms
)

// termSign is the digital recombination sign of each cross term.
var termSign = [numTerms]float64{1, -1, -1, 1}

// psumSet holds the pooled per-(term, group) partial-sum buffers of one
// fused sweep. Buffers for absent terms are nil.
type psumSet struct {
	terms [numTerms][][]float64
}

func newPsumSet(present [numTerms]bool, groups, size int) *psumSet {
	ps := newPsumSetUncleared(present, groups, size)
	for _, bufs := range ps.terms {
		for _, b := range bufs {
			clear(b)
		}
	}
	return ps
}

func (ps *psumSet) release() {
	for t, bufs := range ps.terms {
		if bufs == nil {
			continue
		}
		for i, b := range bufs {
			putFloats(b)
			bufs[i] = nil
		}
		putViews(bufs)
		ps.terms[t] = nil
	}
	psumSetPool.Put(ps)
}

// fusedSignedGroupedConv2D computes, for each channel group and each present
// pseudo-negative cross term, the unit-stride convolution partial sums in a
// SINGLE shift-and-add sweep. Where the unplanned path runs four
// independent grouped convolutions — each re-walking the group/tap/row loop
// nest over its own operand pair — this sweep walks the nest once: at every
// non-zero weight tap the sign of the cached quantized weight selects the
// destination pair, and both activation parts' rows accumulate into their
// cross-term buffers in one branch-free pass. The partial sums stay
// separate up to the detector/ADC boundary, so downstream noise and
// quantization semantics are untouched.
//
// Bit-identity with the unplanned path holds because every accumulator
// receives exactly the additions the corresponding sign-split sweep would
// produce, in the same (channel, tap, row, column) order; only the
// interleaving BETWEEN independent accumulators differs.
//
// xpos/xneg are the sign-split quantized activations (NCHW, n x cin x h x
// w; either may be nil when that part is absent); wq the signed quantized
// weights (cout x cin x k x k). dst indexes [term][group] partial-sum
// buffers of n*cout*oh*ow elements (nil for absent terms). Work items (one
// per batch sample and output channel) run on up to workers goroutines;
// items write disjoint output regions, so the result is bit-identical at
// any worker count.
func fusedSignedGroupedConv2D(xpos, xneg []float64, n, cin, h, w int, wq []float64, cout, k int, groups [][2]int, pad tensor.PadMode, workers int, dst *psumSet) error {
	padT, padL := 0, 0
	oh, ow := h-k+1, w-k+1
	if pad == tensor.Same {
		padT, padL = tensor.SamePad(k), tensor.SamePad(k)
		oh, ow = h, w
	}
	if oh < 1 || ow < 1 {
		return fmt.Errorf("core: fused conv empty output for %dx%d k=%d", h, w, k)
	}
	return parallelFor(n*cout, workers, func(item int) error {
		b, oc := item/cout, item%cout
		off := (b*cout + oc) * oh * ow
		for gi, g := range groups {
			var tPP, tPN, tNP, tNN []float64
			if bufs := dst.terms[termPosPos]; bufs != nil {
				tPP = bufs[gi][off : off+oh*ow]
			}
			if bufs := dst.terms[termPosNeg]; bufs != nil {
				tPN = bufs[gi][off : off+oh*ow]
			}
			if bufs := dst.terms[termNegPos]; bufs != nil {
				tNP = bufs[gi][off : off+oh*ow]
			}
			if bufs := dst.terms[termNegNeg]; bufs != nil {
				tNN = bufs[gi][off : off+oh*ow]
			}
			for ic := g[0]; ic < g[1]; ic++ {
				inBase := (b*cin + ic) * h * w
				wBase := (oc*cin + ic) * k * k
				for ky := 0; ky < k; ky++ {
					dy := ky - padT
					oy0, oy1 := 0, oh
					if dy < 0 {
						oy0 = -dy
					}
					if dy+oy1 > h {
						oy1 = h - dy
					}
					for kx := 0; kx < k; kx++ {
						wv := wq[wBase+ky*k+kx]
						if wv == 0 {
							continue
						}
						// The weight sign selects the destination pair;
						// the activation part selects within the pair.
						a := wv
						dp, dn := tPP, tNP
						if wv < 0 {
							a = -wv
							dp, dn = tPN, tNN
						}
						dx := kx - padL
						ox0, ox1 := 0, ow
						if dx < 0 {
							ox0 = -dx
						}
						if dx+ox1 > w {
							ox1 = w - dx
						}
						if ox0 >= ox1 {
							continue // every column of the tap reads padding
						}
						// The part-presence branch is hoisted out of the row
						// loop; re-slicing every operand row to the source
						// row's length lets the compiler drop the
						// per-element bounds checks.
						switch {
						case xpos != nil && xneg != nil:
							// Mixed-sign activations: both parts' rows
							// accumulate in one fused pass.
							for oy := oy0; oy < oy1; oy++ {
								rowBase := inBase + (oy+dy)*w + dx
								dst0 := oy*ow + ox0
								srcP := xpos[rowBase+ox0 : rowBase+ox1]
								srcN := xneg[rowBase+ox0 : rowBase+ox1]
								dpRow := dp[dst0:]
								dnRow := dn[dst0:]
								srcN = srcN[:len(srcP)]
								dpRow = dpRow[:len(srcP)]
								dnRow = dnRow[:len(srcP)]
								for i, v := range srcP {
									dpRow[i] += a * v
									dnRow[i] += a * srcN[i]
								}
							}
						case xpos != nil:
							for oy := oy0; oy < oy1; oy++ {
								rowBase := inBase + (oy+dy)*w + dx
								srcP := xpos[rowBase+ox0 : rowBase+ox1]
								dpRow := dp[oy*ow+ox0:]
								dpRow = dpRow[:len(srcP)]
								for i, v := range srcP {
									dpRow[i] += a * v
								}
							}
						default:
							for oy := oy0; oy < oy1; oy++ {
								rowBase := inBase + (oy+dy)*w + dx
								srcN := xneg[rowBase+ox0 : rowBase+ox1]
								dnRow := dn[oy*ow+ox0:]
								dnRow = dnRow[:len(srcN)]
								for i, v := range srcN {
									dnRow[i] += a * v
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
}

// sweepTap is one compacted sweep tap: coefficient (the weight magnitude)
// and its flattened source offset relative to the destination element.
type sweepTap struct {
	c   float64
	off int
}

// axpy1/axpy2/axpy3 are the register-tiled row kernels: d[i] accumulates
// c0*s0[i] (+ c1*s1[i] + c2*s2[i]) with four output elements live in
// registers per iteration — four independent dependency chains keep the
// floating-point adders busy where a single running element would serialize.
// Every tap remains its own += operation, so rounding matches the one-pass-
// per-tap form bit for bit.
func axpy1(d, s0 []float64, c0 float64) {
	s0 = s0[:len(d)]
	for i, v := range s0 {
		d[i] += c0 * v
	}
}

func axpy2(d, s0, s1 []float64, c0, c1 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		v0, v1, v2, v3 := d[i], d[i+1], d[i+2], d[i+3]
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := d[i]
		v += c0 * s0[i]
		v += c1 * s1[i]
		d[i] = v
	}
}

func axpy3(d, s0, s1, s2 []float64, c0, c1, c2 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	s2 = s2[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		v0, v1, v2, v3 := d[i], d[i+1], d[i+2], d[i+3]
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		v0 += c2 * s2[i]
		v1 += c2 * s2[i+1]
		v2 += c2 * s2[i+2]
		v3 += c2 * s2[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := d[i]
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		d[i] = v
	}
}

// axpy1Mixed/axpy2Mixed/axpy3Mixed apply the same taps to both activation
// parts at once: dp accumulates the positive part's rows, dn the negative
// part's, two output elements of each live in registers per iteration.
func axpy1Mixed(dp, dn, p0, n0 []float64, c0 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	n0 = n0[:m]
	for i, v := range p0 {
		dp[i] += c0 * v
		dn[i] += c0 * n0[i]
	}
}

func axpy2Mixed(dp, dn, p0, p1, n0, n1 []float64, c0, c1 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		v0, v1 := dp[i], dp[i+1]
		u0, u1 := dn[i], dn[i+1]
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := dp[i], dn[i]
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		dp[i], dn[i] = v, u
	}
}

func axpy3Mixed(dp, dn, p0, p1, p2, n0, n1, n2 []float64, c0, c1, c2 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	p2 = p2[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	n2 = n2[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		v0, v1 := dp[i], dp[i+1]
		u0, u1 := dn[i], dn[i+1]
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		v0 += c2 * p2[i]
		v1 += c2 * p2[i+1]
		u0 += c2 * n2[i]
		u1 += c2 * n2[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := dp[i], dn[i]
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		v += c2 * p2[i]
		u += c2 * n2[i]
		dp[i], dn[i] = v, u
	}
}

// axpy1Z/axpy2Z/axpy3Z are the first-writer forms of the tiled kernels:
// they STORE the chain's contribution instead of accumulating, equivalent
// to += on a zeroed buffer (the register accumulator starts at +0, exactly
// like the zeroed element), so psum buffers need no pre-clearing when the
// first chain of the first contributing channel uses them.
func axpy1Z(d, s0 []float64, c0 float64) {
	s0 = s0[:len(d)]
	for i, v := range s0 {
		d[i] = c0 * v
	}
}

func axpy2Z(d, s0, s1 []float64, c0, c1 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	for i := range d {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		d[i] = v
	}
}

func axpy3Z(d, s0, s1, s2 []float64, c0, c1, c2 float64) {
	s0 = s0[:len(d)]
	s1 = s1[:len(d)]
	s2 = s2[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		var v0, v1, v2, v3 float64
		v0 += c0 * s0[i]
		v1 += c0 * s0[i+1]
		v2 += c0 * s0[i+2]
		v3 += c0 * s0[i+3]
		v0 += c1 * s1[i]
		v1 += c1 * s1[i+1]
		v2 += c1 * s1[i+2]
		v3 += c1 * s1[i+3]
		v0 += c2 * s2[i]
		v1 += c2 * s2[i+1]
		v2 += c2 * s2[i+2]
		v3 += c2 * s2[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = v0, v1, v2, v3
	}
	for ; i < len(d); i++ {
		v := 0.0
		v += c0 * s0[i]
		v += c1 * s1[i]
		v += c2 * s2[i]
		d[i] = v
	}
}

func axpy1MixedZ(dp, dn, p0, n0 []float64, c0 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	n0 = n0[:m]
	for i, v := range p0 {
		dp[i] = c0 * v
		dn[i] = c0 * n0[i]
	}
}

func axpy2MixedZ(dp, dn, p0, p1, n0, n1 []float64, c0, c1 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	for i := range dp {
		v, u := 0.0, 0.0
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		dp[i], dn[i] = v, u
	}
}

func axpy3MixedZ(dp, dn, p0, p1, p2, n0, n1, n2 []float64, c0, c1, c2 float64) {
	m := len(dp)
	dn = dn[:m]
	p0 = p0[:m]
	p1 = p1[:m]
	p2 = p2[:m]
	n0 = n0[:m]
	n1 = n1[:m]
	n2 = n2[:m]
	i := 0
	for ; i+2 <= m; i += 2 {
		var v0, v1, u0, u1 float64
		v0 += c0 * p0[i]
		v1 += c0 * p0[i+1]
		u0 += c0 * n0[i]
		u1 += c0 * n0[i+1]
		v0 += c1 * p1[i]
		v1 += c1 * p1[i+1]
		u0 += c1 * n1[i]
		u1 += c1 * n1[i+1]
		v0 += c2 * p2[i]
		v1 += c2 * p2[i+1]
		u0 += c2 * n2[i]
		u1 += c2 * n2[i+1]
		dp[i], dp[i+1] = v0, v1
		dn[i], dn[i+1] = u0, u1
	}
	for ; i < m; i++ {
		v, u := 0.0, 0.0
		v += c0 * p0[i]
		u += c0 * n0[i]
		v += c1 * p1[i]
		u += c1 * n1[i]
		v += c2 * p2[i]
		u += c2 * n2[i]
		dp[i], dn[i] = v, u
	}
}

// psumSetPool recycles the set structs; the buffers and view tables inside
// cycle through floatPool/viewsPool.
var psumSetPool sync.Pool

// newPsumSetUncleared is newPsumSet without the zero fill, for sweeps whose
// first pass stores instead of accumulating (store-first batch sweep).
func newPsumSetUncleared(present [numTerms]bool, groups, size int) *psumSet {
	ps, _ := psumSetPool.Get().(*psumSet)
	if ps == nil {
		ps = &psumSet{}
	}
	for t := range ps.terms {
		if !present[t] {
			ps.terms[t] = nil
			continue
		}
		bufs := getViews(groups)
		for g := range bufs {
			bufs[g] = getFloats(size)
		}
		ps.terms[t] = bufs
	}
	return ps
}
