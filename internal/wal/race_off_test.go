//go:build !race

package wal

// raceEnabled reports whether the race detector is active. Allocation
// tests skip under -race: instrumentation changes allocation behaviour in
// ways that are not regressions.
const raceEnabled = false
