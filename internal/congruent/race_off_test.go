//go:build !race

package congruent

const raceEnabled = false
