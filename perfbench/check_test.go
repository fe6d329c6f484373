package main

import (
	"math"
	"testing"
)

func TestCheckFlagsPerturbedLogitRow(t *testing.T) {
	want := []float64{0.25, -1.5, 3.0, 2.75}
	ref := newReference(want)
	if !ref.passes(append([]float64(nil), want...), true) {
		t.Fatal("an identical row must pass the exact check")
	}

	oneULP := append([]float64(nil), want...)
	oneULP[1] = math.Nextafter(oneULP[1], 0)
	if ref.passes(oneULP, true) {
		t.Error("exact check passed a row one ulp away from the reference")
	}
	if !ref.passes(oneULP, false) {
		t.Error("top-1 check failed a row whose top class is unchanged")
	}

	flipped := append([]float64(nil), want...)
	flipped[3] = 3.5
	if ref.passes(flipped, false) {
		t.Error("top-1 check passed a row whose top class moved")
	}
	if ref.passes(want[:3], false) || ref.passes(want[:3], true) {
		t.Error("check passed a row of the wrong length")
	}
}

func TestArgmaxTiesTakeLowerIndex(t *testing.T) {
	if got := argmax([]float64{1, 4, 4, 2}); got != 1 {
		t.Fatalf("argmax = %d, want 1", got)
	}
}
