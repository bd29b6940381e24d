//go:build race

package browserflow

const raceEnabled = true
