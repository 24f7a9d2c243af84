//go:build race

package congruent

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops entries at random, so allocation gates do not apply.
const raceEnabled = true
