package main

import "testing"

func TestNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2}, // ceil(1.5) = 2nd
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{ten(), 0.5, 5},
		{ten(), 0.9, 9},
		{ten(), 0.91, 10},
		{ten(), 1, 10},
		{ten(), 0, 1},
	}
	for _, c := range cases {
		if got := nearestRank(c.xs, c.q); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}
