//go:build !race

package proxy

// raceEnabled reports whether the race detector is active. Allocation
// regression tests skip under -race: instrumentation changes allocation
// behaviour (and sync.Pool deliberately drops items) in ways that are not
// regressions.
const raceEnabled = false
