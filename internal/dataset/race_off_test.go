//go:build !race

package dataset

// raceEnabled reports whether the race detector is active. Allocation
// regression tests skip under -race: instrumentation changes allocation
// behaviour in ways that are not regressions.
const raceEnabled = false
