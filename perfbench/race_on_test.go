//go:build race

package main

// raceEnabled reports whether the race detector is active. The Class-1
// GUPS comparison is deliberately unsynchronized (see baseline.GUPS), so
// the full-size runs would trip the detector by design.
const raceEnabled = true
