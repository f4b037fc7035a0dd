//go:build race

package httpapi

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// objects at random: allocation counts then measure the detector, not the
// pools' steady state.
const raceEnabled = true
