// Per-step metadata for profiling a compiled plan: each step's name, the
// engine call indices it consumes per sample, its convolution geometry and
// its output shape, so a profiler can time steps one at a time and set a
// cost model's price (e.g. internal/arch's per-layer evaluator) beside
// each measured time.
package nn

import (
	"fmt"

	"photofourier/internal/tensor"
)

// ConvGeom is the geometry of one engine convolution step, enough for an
// external cost model (e.g. internal/arch's per-layer evaluator) to price
// it: input channels/height/width, output channels, kernel, stride, pad.
type ConvGeom struct {
	Cin, Cout, H, W, K, Stride int
	Pad                        tensor.PadMode
}

// StepMeta describes one compiled plan step for per-step profiling.
type StepMeta struct {
	Name string
	// Keyed is the engine call indices the step consumes per sample.
	Keyed uint64
	// Conv is the step's convolution geometry; nil for non-convolution
	// steps (and for composite steps such as residual blocks).
	Conv *ConvGeom
	// Out is the per-sample output shape after the step.
	Out []int
}

// StepMetas walks the plan once for a (c, h, w) input sample and returns
// per-step metadata: keyed call consumption, convolution geometry where the
// step is a convolution, and output shapes. It fails on opaque fallback
// steps, whose shapes and engine usage cannot be derived statically.
func (p *NetworkPlan) StepMetas(c, h, w int) ([]StepMeta, error) {
	out := make([]StepMeta, 0, len(p.steps))
	in := []int{c, h, w}
	for _, s := range p.steps {
		shape, err := s.outShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: %s step on %v: %w", s.name(), in, err)
		}
		if shape == nil {
			return nil, fmt.Errorf("nn: step %s has no static geometry; cannot profile it per step", s.name())
		}
		keyed, ok := countKeyedSteps([]planStep{s})
		if !ok {
			return nil, fmt.Errorf("nn: step %s hides engine usage; cannot profile it per step", s.name())
		}
		m := StepMeta{Name: s.name(), Keyed: keyed, Out: shape}
		if conv := stepConv(s); conv != nil && len(in) == 3 {
			w := conv.Weight.W
			m.Conv = &ConvGeom{
				Cin: w.Shape[1], Cout: w.Shape[0],
				H: in[1], W: in[2], K: w.Shape[2],
				Stride: conv.Stride, Pad: conv.Pad,
			}
		}
		out = append(out, m)
		in = shape
	}
	return out, nil
}

// stepConv returns the convolution module behind a single-conv step.
func stepConv(s planStep) *Conv {
	switch st := s.(type) {
	case *convPlanStep:
		return st.c
	case *convEngineStep:
		return st.c
	case *convRefStep:
		return st.c
	}
	return nil
}
