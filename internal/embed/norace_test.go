//go:build !race

package embed

const raceEnabled = false
