// Package nn is a small trainable neural-network library (forward and
// backward passes in pure Go) used by the accuracy experiments: the Table I
// row-tiling study and the Fig. 7 temporal-accumulation study. Its key
// feature is the pluggable ConvEngine: after training with the reference
// engine, inference can run through the row-tiled 1D path or the full
// PhotoFourier functional accelerator, so accuracy deltas isolate exactly
// the execution substrate.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"photofourier/internal/tensor"
)

// ConvEngine executes 2D convolutions at inference time. Implementations:
// the reference engine (tensor.Conv2D), the row-tiled 1D engine, and the
// PhotoFourier core engine (quantized, temporally accumulated).
type ConvEngine interface {
	// Conv2D consumes NCHW input and [Cout][Cin][K][K] weights.
	Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error)
	// Name identifies the engine in experiment reports.
	Name() string
}

// LayerPlan is a compiled, reusable inference path for one convolution
// layer: the engine quantizes/transforms the layer's weights once at plan
// time, and every Conv2D call afterwards pays only activation-dependent
// work — mirroring hardware that latches weights while activations stream.
// Plans are safe for concurrent Conv2D calls and produce output
// bit-identical to the engine's unplanned Conv2D on the same operands.
type LayerPlan interface {
	// Conv2D runs the planned layer on an NCHW input batch.
	Conv2D(input *tensor.Tensor) (*tensor.Tensor, error)
	// Stale reports whether the engine configuration the plan compiled
	// against has changed, so the holder must re-plan before reusing it.
	Stale() bool
}

// LayerPlanner is an optional ConvEngine extension for engines that can
// compile a layer's weights into a reusable LayerPlan. Conv.Forward
// detects it and caches one plan per layer, re-planning when the engine,
// its configuration, or the layer weights change.
type LayerPlanner interface {
	ConvEngine
	PlanConv(weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (LayerPlan, error)
}

// BatchLayerPlan is an optional LayerPlan extension for batch-major
// execution with PER-SAMPLE semantics: ForwardBatchCalls runs a whole NCHW
// batch as if each sample had been run through Conv2D alone — per-sample
// operand quantization scales, per-sample readout calibration, and
// per-sample noise substreams — while executing batch-major (weights walked
// once per batch, the whole batch resident per pipeline stage). In
// core.LayerPlan it is the channel-range kernel of ChannelRangePlan run
// over all output channels [0, cout), with every ADC full scale derived
// locally from the whole plane instead of exchanged. LayerPlan.Conv2D runs
// the same kernel with the whole batch as ONE calibration domain (one
// quantization scale, ADC calibration and noise key, like one unplanned
// call), where ForwardBatchCalls makes each sample its own domain.
//
// Sample i keys its readout-noise substreams by the virtual call index
// first + i*stride. Callers reserve the index block through ReserveCalls so
// the keying matches the call sequence a per-sample loop would consume:
// NetworkPlan.ForwardBatch reserves n*L indices for an n-sample batch over
// L planned layers and passes layer l the pair (base+l+1, L), reproducing
// the sample-major per-sample sequence exactly.
type BatchLayerPlan interface {
	LayerPlan
	// BatchExact reports whether ForwardBatchCalls reproduces the
	// per-sample path bit-identically; false when the engine's noise is a
	// shared sequential stream rather than keyed substreams.
	BatchExact() bool
	// ReserveCalls reserves n consecutive engine call indices and returns
	// the counter value before the reservation.
	ReserveCalls(n uint64) uint64
	// ForwardBatchCalls runs the planned layer batch-major over an NCHW
	// batch with per-sample semantics.
	ForwardBatchCalls(x *tensor.Tensor, first, stride uint64) (*tensor.Tensor, error)
}

// ReferenceEngine computes exact float convolutions.
type ReferenceEngine struct{}

// Conv2D implements ConvEngine.
func (ReferenceEngine) Conv2D(input, weight *tensor.Tensor, bias []float64, stride int, pad tensor.PadMode) (*tensor.Tensor, error) {
	return tensor.Conv2D(input, weight, bias, stride, pad)
}

// Name implements ConvEngine.
func (ReferenceEngine) Name() string { return "reference-2d" }

// Param is a trainable tensor with its gradient.
type Param struct {
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(shape ...int) *Param {
	return &Param{W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Module is one differentiable layer.
type Module interface {
	// Forward computes the layer output; train enables state capture for
	// the backward pass.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes dL/dOut and returns dL/dIn, accumulating parameter
	// gradients.
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
}

// Conv is a 2D convolution layer. Training always uses the exact im2col
// path; inference (train=false) routes through Engine when set — through a
// cached LayerPlan when the engine supports planning, so repeated forward
// passes (batches, accuracy sweeps) pay the weight setup once.
type Conv struct {
	Weight *Param
	Bias   *Param
	Stride int
	Pad    tensor.PadMode
	Engine ConvEngine // nil means reference

	// plan is the compiled inference path for the current (engine,
	// weights) pair; planEngine records which engine built it so swapping
	// engines (e.g. a Fig. 7 NTA sweep) re-plans automatically. Backward
	// invalidates the plan because a training step is about to mutate the
	// weights it compiled. planMu keeps the cache safe for concurrent
	// inference on a shared model (plans themselves are concurrency-safe).
	planMu     sync.Mutex
	plan       LayerPlan
	planEngine ConvEngine

	// planGen counts plan invalidations; NetworkPlan snapshots it at
	// compile time to detect that a training step mutated the weights a
	// whole-network plan compiled from.
	planGen atomic.Uint64

	lastCols  []*tensor.Tensor // per-sample im2col buffers
	lastShape []int
}

// SetEngine implements Plannable: it routes the layer's inference path
// through e (nil restores the exact reference path).
func (c *Conv) SetEngine(e ConvEngine) { c.Engine = e }

// InvalidatePlan drops the cached inference plan; the next inference
// forward pass re-plans. Call it after mutating Weight or Bias outside the
// training loop (Backward invalidates automatically). Compiled
// NetworkPlans holding this layer report Stale afterwards.
func (c *Conv) InvalidatePlan() {
	c.planMu.Lock()
	c.plan, c.planEngine = nil, nil
	c.planGen.Add(1)
	c.planMu.Unlock()
}

// layerPlan returns the cached plan for the current (engine, weights)
// pair, compiling one if missing or stale.
func (c *Conv) layerPlan(planner LayerPlanner) (LayerPlan, error) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.plan == nil || c.planEngine != c.Engine || c.plan.Stale() {
		plan, err := planner.PlanConv(c.Weight.W, c.Bias.W.Data, c.Stride, c.Pad)
		if err != nil {
			return nil, err
		}
		c.plan, c.planEngine = plan, c.Engine
	}
	return c.plan, nil
}

// NewConv builds a KxK convolution with He-normal initialization.
func NewConv(cin, cout, k, stride int, pad tensor.PadMode, rng *rand.Rand) *Conv {
	c := &Conv{
		Weight: newParam(cout, cin, k, k),
		Bias:   newParam(cout),
		Stride: stride,
		Pad:    pad,
	}
	std := math.Sqrt(2 / float64(cin*k*k))
	c.Weight.W.RandN(rng, std)
	return c
}

// Params implements Module.
func (c *Conv) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Module.
func (c *Conv) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: Conv wants NCHW input, got %v", x.Shape)
	}
	if !train && c.Engine != nil {
		if planner := plannerFor(c.Engine); planner != nil {
			plan, err := c.layerPlan(planner)
			if err != nil {
				return nil, err
			}
			return plan.Conv2D(x)
		}
		return c.Engine.Conv2D(x, c.Weight.W, c.Bias.W.Data, c.Stride, c.Pad)
	}
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, k := c.Weight.W.Shape[0], c.Weight.W.Shape[2]
	wmat, err := c.Weight.W.Reshape(cout, cin*k*k)
	if err != nil {
		return nil, err
	}
	if train {
		c.lastCols = make([]*tensor.Tensor, n)
		c.lastShape = []int{n, cin, h, w}
	}
	var out *tensor.Tensor
	for b := 0; b < n; b++ {
		img := &tensor.Tensor{Shape: []int{cin, h, w}, Data: x.Data[b*cin*h*w : (b+1)*cin*h*w]}
		col, oh, ow, err := tensor.Im2Col(img, k, k, c.Stride, c.Pad)
		if err != nil {
			return nil, err
		}
		if train {
			c.lastCols[b] = col
		}
		prod, err := tensor.MatMul(wmat, col)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = tensor.New(n, cout, oh, ow)
		}
		dst := out.Data[b*cout*oh*ow : (b+1)*cout*oh*ow]
		for oc := 0; oc < cout; oc++ {
			bias := c.Bias.W.Data[oc]
			src := prod.Data[oc*oh*ow : (oc+1)*oh*ow]
			for i, v := range src {
				dst[oc*oh*ow+i] = v + bias
			}
		}
	}
	return out, nil
}

// Backward implements Module.
func (c *Conv) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.lastCols == nil {
		return nil, fmt.Errorf("nn: Conv.Backward before Forward(train=true)")
	}
	// A backward pass precedes an optimizer step that mutates the weights
	// any cached inference plan compiled from.
	c.InvalidatePlan()
	n, cin, h, w := c.lastShape[0], c.lastShape[1], c.lastShape[2], c.lastShape[3]
	cout, k := c.Weight.W.Shape[0], c.Weight.W.Shape[2]
	oh, ow := grad.Shape[2], grad.Shape[3]
	wmat, _ := c.Weight.W.Reshape(cout, cin*k*k)
	dwmat, _ := c.Weight.Grad.Reshape(cout, cin*k*k)
	dx := tensor.New(n, cin, h, w)
	for b := 0; b < n; b++ {
		gslice := &tensor.Tensor{Shape: []int{cout, oh * ow}, Data: grad.Data[b*cout*oh*ow : (b+1)*cout*oh*ow]}
		col := c.lastCols[b]
		// dW += g x col^T
		for oc := 0; oc < cout; oc++ {
			grow := gslice.Data[oc*oh*ow : (oc+1)*oh*ow]
			var bsum float64
			for _, v := range grow {
				bsum += v
			}
			c.Bias.Grad.Data[oc] += bsum
			drow := dwmat.Data[oc*cin*k*k : (oc+1)*cin*k*k]
			for r := 0; r < cin*k*k; r++ {
				crow := col.Data[r*oh*ow : (r+1)*oh*ow]
				var s float64
				for i, v := range grow {
					s += v * crow[i]
				}
				drow[r] += s
			}
		}
		// dcol = W^T x g
		dcol := tensor.New(cin*k*k, oh*ow)
		for oc := 0; oc < cout; oc++ {
			grow := gslice.Data[oc*oh*ow : (oc+1)*oh*ow]
			wrow := wmat.Data[oc*cin*k*k : (oc+1)*cin*k*k]
			for r, wv := range wrow {
				if wv == 0 {
					continue
				}
				drow := dcol.Data[r*oh*ow : (r+1)*oh*ow]
				for i, gv := range grow {
					drow[i] += wv * gv
				}
			}
		}
		img, err := tensor.Col2Im(dcol, cin, h, w, k, k, c.Stride, c.Pad)
		if err != nil {
			return nil, err
		}
		copy(dx.Data[b*cin*h*w:(b+1)*cin*h*w], img.Data)
	}
	c.lastCols = nil
	return dx, nil
}

// ReLULayer applies elementwise max(0, x).
type ReLULayer struct {
	mask []bool
}

// Forward implements Module.
func (r *ReLULayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := x.Clone()
	if train {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else if train {
			r.mask[i] = true
		}
	}
	return out, nil
}

// Backward implements Module.
func (r *ReLULayer) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.mask == nil {
		return nil, fmt.Errorf("nn: ReLU.Backward before Forward(train=true)")
	}
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Params implements Module.
func (r *ReLULayer) Params() []*Param { return nil }

// MaxPool is a kxk/stride max-pooling layer.
type MaxPool struct {
	K, Stride int
	argmax    []int
	inShape   []int
}

// Forward implements Module.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: MaxPool wants NCHW, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("nn: MaxPool empty output for %v", x.Shape)
	}
	out := tensor.New(n, c, oh, ow)
	if train {
		m.argmax = make([]int, n*c*oh*ow)
		m.inShape = []int{n, c, h, w}
	}
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best, bestIdx := math.Inf(-1), -1
					for ky := 0; ky < m.K; ky++ {
						row := inBase + (oy*m.Stride+ky)*w + ox*m.Stride
						for kx := 0; kx < m.K; kx++ {
							if v := x.Data[row+kx]; v > best {
								best, bestIdx = v, row+kx
							}
						}
					}
					out.Data[outBase+oy*ow+ox] = best
					if train {
						m.argmax[outBase+oy*ow+ox] = bestIdx
					}
				}
			}
		}
	}
	return out, nil
}

// Backward implements Module.
func (m *MaxPool) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.argmax == nil {
		return nil, fmt.Errorf("nn: MaxPool.Backward before Forward(train=true)")
	}
	dx := tensor.New(m.inShape...)
	for i, v := range grad.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx, nil
}

// Params implements Module.
func (m *MaxPool) Params() []*Param { return nil }

// GlobalAvgPool reduces NCHW to [N][C].
type GlobalAvgPool struct {
	inShape []int
}

// Forward implements Module.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out, err := tensor.GlobalAvgPool2D(x)
	if err != nil {
		return nil, err
	}
	if train {
		g.inShape = append([]int(nil), x.Shape...)
	}
	return out, nil
}

// Backward implements Module.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if g.inShape == nil {
		return nil, fmt.Errorf("nn: GlobalAvgPool.Backward before Forward(train=true)")
	}
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	dx := tensor.New(n, c, h, w)
	inv := 1 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gv := grad.Data[b*c+ch] * inv
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				dx.Data[base+i] = gv
			}
		}
	}
	return dx, nil
}

// Params implements Module.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// DenseLayer is a fully connected layer on [N][In] inputs.
type DenseLayer struct {
	Weight *Param // [Out][In]
	Bias   *Param
	lastX  *tensor.Tensor
}

// NewDense builds a dense layer with He-normal initialization.
func NewDense(in, out int, rng *rand.Rand) *DenseLayer {
	d := &DenseLayer{Weight: newParam(out, in), Bias: newParam(out)}
	d.Weight.W.RandN(rng, math.Sqrt(2/float64(in)))
	return d
}

// Forward implements Module.
func (d *DenseLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 2 {
		// Flatten anything else.
		flat, err := x.Reshape(x.Shape[0], x.Size()/x.Shape[0])
		if err != nil {
			return nil, err
		}
		x = flat
	}
	if train {
		d.lastX = x
	}
	return tensor.Dense(x, d.Weight.W, d.Bias.W.Data)
}

// Backward implements Module.
func (d *DenseLayer) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastX == nil {
		return nil, fmt.Errorf("nn: Dense.Backward before Forward(train=true)")
	}
	n := grad.Shape[0]
	out, in := d.Weight.W.Shape[0], d.Weight.W.Shape[1]
	dx := tensor.New(n, in)
	for b := 0; b < n; b++ {
		xrow := d.lastX.Data[b*in : (b+1)*in]
		grow := grad.Data[b*out : (b+1)*out]
		for o := 0; o < out; o++ {
			gv := grow[o]
			d.Bias.Grad.Data[o] += gv
			wrow := d.Weight.W.Data[o*in : (o+1)*in]
			dwrow := d.Weight.Grad.Data[o*in : (o+1)*in]
			dxrow := dx.Data[b*in : (b+1)*in]
			for i := 0; i < in; i++ {
				dwrow[i] += gv * xrow[i]
				dxrow[i] += gv * wrow[i]
			}
		}
	}
	d.lastX = nil
	return dx, nil
}

// Params implements Module.
func (d *DenseLayer) Params() []*Param { return []*Param{d.Weight, d.Bias} }
