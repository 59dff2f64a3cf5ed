package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0<q<1)
// and how many samples lie beyond it. The caller reports the value
// only when beyond >= minBeyond.
func percentile(samples []float64, q float64) (v float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// minSamplesFor is the smallest sample count whose q-percentile has
// minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if _, beyond := percentile(make([]float64, n), q); beyond >= minBeyond {
			return n
		}
	}
}

// median is the middle value (mean of the middle two for even n).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}
