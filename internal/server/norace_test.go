//go:build !race

package server

// raceEnabled reports a -race build, in which sync.Pool drops some
// Puts, so allocation counts are not stable.
const raceEnabled = false
