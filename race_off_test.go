//go:build !race

package browserflow

// raceEnabled reports whether the race detector is active. Heap-size
// assertions skip under -race: instrumentation changes what is allocated.
const raceEnabled = false
