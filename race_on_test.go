//go:build race

package photofourier

// raceEnabled reports a -race build: sync.Pool drops pooled items at
// random there, so allocation counts say nothing about the steady state
// and the alloc gates run in non-race builds only.
const raceEnabled = true
