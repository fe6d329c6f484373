package photofourier

import (
	"errors"
	"testing"

	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// TestConvEdgeTypedErrors drives malformed operands through every public
// conv entry point — Conv2D on the accelerator (direct and tiled), the
// row-tiled and the unplanned engines, plus the accelerator's PlanConv,
// planned Conv2D and ForwardBatchCalls — and requires an error wrapping
// ErrShapeMismatch (a plain error for stride < 1), never a panic.
func TestConvEdgeTypedErrors(t *testing.T) {
	okX := tensor.New(2, 3, 8, 8)
	okW := tensor.New(4, 3, 3, 3)
	okBias := make([]float64, 4)
	cases := []struct {
		name   string
		x, w   *tensor.Tensor
		bias   []float64
		stride int
		pad    tensor.PadMode
		shape  bool // error must wrap ErrShapeMismatch
	}{
		{"rank-3 input", tensor.New(3, 8, 8), okW, okBias, 1, tensor.Same, true},
		{"rank-2 weight", okX, tensor.New(4, 3), okBias, 1, tensor.Same, true},
		{"non-square kernel", okX, tensor.New(4, 3, 3, 2), okBias, 1, tensor.Same, true},
		{"short bias", okX, okW, okBias[:2], 1, tensor.Same, true},
		{"channel mismatch", tensor.New(2, 2, 8, 8), okW, okBias, 1, tensor.Same, true},
		{"empty valid output", tensor.New(2, 3, 2, 2), okW, okBias, 1, tensor.Valid, true},
		{"stride 0", okX, okW, okBias, 0, tensor.Same, false},
	}
	check := func(t *testing.T, what string, err error, shape bool) {
		t.Helper()
		switch {
		case err == nil:
			t.Errorf("%s: accepted malformed operands", what)
		case shape && !errors.Is(err, ErrShapeMismatch):
			t.Errorf("%s: %v does not wrap ErrShapeMismatch", what, err)
		}
	}
	for _, spec := range []string{"accelerator", "accelerator?tiled=true,aperture=64", "rowtiled?aperture=64", "unplanned"} {
		e, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			_, err := e.Conv2D(tc.x, tc.w, tc.bias, tc.stride, tc.pad)
			check(t, spec+" Conv2D "+tc.name, err, tc.shape)
			if !e.Capabilities().Plannable {
				continue
			}
			lp, err := e.PlanConv(tc.w, tc.bias, tc.stride, tc.pad)
			if err != nil {
				check(t, spec+" PlanConv "+tc.name, err, tc.shape)
				continue
			}
			_, err = lp.Conv2D(tc.x)
			check(t, spec+" planned Conv2D "+tc.name, err, tc.shape)
			_, err = lp.(nn.BatchLayerPlan).ForwardBatchCalls(tc.x, 1, 1)
			check(t, spec+" ForwardBatchCalls "+tc.name, err, tc.shape)
		}
	}
}
