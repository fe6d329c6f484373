package nn

import (
	"errors"
	"testing"
)

// TestCombineRangeScalesRejectsMalformedMaxima: maxima arrive from other
// devices, so a malformed exchange must come back as ErrShapeMismatch, never
// as an index panic.
func TestCombineRangeScalesRejectsMalformedMaxima(t *testing.T) {
	good := func() RangeMaxima {
		return RangeMaxima{Samples: 2, Groups: 2, Terms: [NumCrossTerms][]float64{
			{1, 2, 3, 4}, nil, {0, 0.5, 0, 0}, nil,
		}}
	}
	for _, tc := range []struct {
		name  string
		parts func() []RangeMaxima
	}{
		{"short term slice", func() []RangeMaxima {
			a, b := good(), good()
			b.Terms[0] = b.Terms[0][:3]
			return []RangeMaxima{a, b}
		}},
		{"short reference slice", func() []RangeMaxima {
			a := good()
			a.Terms[2] = a.Terms[2][:1]
			return []RangeMaxima{a}
		}},
		{"empty present slice", func() []RangeMaxima {
			a := good()
			a.Terms[0] = []float64{}
			return []RangeMaxima{a}
		}},
		{"nil term in one range", func() []RangeMaxima {
			a, b := good(), good()
			b.Terms[2] = nil
			return []RangeMaxima{a, b}
		}},
		{"term only in a later range", func() []RangeMaxima {
			a, b := good(), good()
			b.Terms[1] = []float64{1, 1, 1, 1}
			return []RangeMaxima{a, b}
		}},
		{"geometry disagreement", func() []RangeMaxima {
			a, b := good(), good()
			b.Groups = 1
			return []RangeMaxima{a, b}
		}},
		{"negative samples", func() []RangeMaxima {
			a := good()
			a.Samples = -2
			a.Groups = -2
			return []RangeMaxima{a}
		}},
	} {
		got, err := CombineRangeScales(tc.parts())
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: got (%v, %v), want an ErrShapeMismatch error", tc.name, got, err)
		}
	}

	scales, err := CombineRangeScales([]RangeMaxima{good(), good()})
	if err != nil {
		t.Fatal(err)
	}
	// Per sample: max over groups, a chargeless group calibrating to 1.
	want := [NumCrossTerms][]float64{{2, 4}, nil, {1, 1}, nil}
	for term := range want {
		if len(scales.Terms[term]) != len(want[term]) {
			t.Fatalf("term %d: %v, want %v", term, scales.Terms[term], want[term])
		}
		for b, v := range want[term] {
			if scales.Terms[term][b] != v {
				t.Fatalf("term %d: %v, want %v", term, scales.Terms[term], want[term])
			}
		}
	}
}
