package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile: the tail is the highest percentile a run can state
// with that many samples behind it.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the value at ascending rank n-tailBeyond-1, the
// percentile that rank stands for, and the sample count. A run with too
// few samples for that reports its maximum at percentile 100.
func tail(xs []float64) (value, percentile float64, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	i := n - tailBeyond - 1
	if i < 0 {
		return s[n-1], 100, n
	}
	return s[i], 100 * float64(n-tailBeyond) / float64(n), n
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
