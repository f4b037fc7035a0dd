//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// objects at random: per-query byte counts then measure the detector, not
// the pools' steady state.
const raceEnabled = true
