package main

import "math"

// reference is the answer a single engine gives for one benchmark input,
// computed at set-up, outside any timed phase.
type reference struct {
	logits []float64
	top1   int
}

func newReference(logits []float64) reference {
	return reference{logits: append([]float64(nil), logits...), top1: argmax(logits)}
}

// passes checks one reply. An exact workload must reproduce the reference
// logits bit for bit (the pool's contract for noise-free devices); a faulted
// workload, whose drift legitimately moves logits, must keep the reference's
// top-1 class.
func (r reference) passes(logits []float64, exact bool) bool {
	if len(logits) != len(r.logits) {
		return false
	}
	if !exact {
		return argmax(logits) == r.top1
	}
	for i, v := range logits {
		if math.Float64bits(v) != math.Float64bits(r.logits[i]) {
			return false
		}
	}
	return true
}

// argmax breaks ties toward the lower index, as serve does.
func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
