package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail timing is reported at,
// each written as the samples per thousand beyond it (p99.9 … p50).
var tailLadder = []int{1, 10, 50, 100, 250, 500}

// tailPercentile is the highest percentile of tailLadder that still
// has at least ten of n samples beyond it, so a tail is never read off
// a handful of outliers; ok is false when n < 20 leaves none.
func tailPercentile(n int) (p float64, ok bool) {
	for _, perMille := range tailLadder {
		if n*perMille >= 10*1000 {
			return 100 - float64(perMille)/10, true
		}
	}
	return 0, false
}

// tail is xs at tailPercentile(len(xs)), or the maximum when the
// sample is too small for any ladder percentile.
func tail(xs []float64) (value, p float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		p = 100
	}
	return percentile(xs, p), p
}
