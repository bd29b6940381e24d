package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count). It sorts a copy; 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pctOf returns the p-th percentile (0 < p <= 100) of xs by the nearest-rank
// rule; 0 when xs is empty. It sorts a copy.
func pctOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) gives
// them, so -selfcheck computes the spread the same way the driver does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// phaseWindows is the number of equal-count consecutive windows a latency
// phase's samples of one op kind are cut into.
const phaseWindows = 10

// windowMedian is how a latency phase becomes one number: cut the samples
// (in arrival order) into phaseWindows equal-count windows, take each
// window's p-th percentile and report the median of those. One GC cycle or
// scheduler stall moves one window's percentile, not the metric; a slowdown
// that reaches half the windows moves it.
func windowMedian(samples []float64, p float64) float64 {
	per := len(samples) / phaseWindows
	if per < 1 {
		return pctOf(samples, p)
	}
	windows := make([]float64, phaseWindows)
	for k := range windows {
		windows[k] = pctOf(samples[k*per:(k+1)*per], p)
	}
	return median(windows)
}
