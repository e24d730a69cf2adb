//go:build race

package trace

// raceEnabled reports whether the race detector is active. The race
// runtime allocates on its own behalf, so tests that pin exact
// allocation counts must skip.
const raceEnabled = true
