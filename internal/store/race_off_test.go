//go:build !race

package store

// raceEnabled reports whether the race detector is active: the rigs run
// fewer random scripts under it.
const raceEnabled = false
