package main

import (
	"math"
	"sort"
)

// tailGuard is how many samples must lie beyond a reported tail
// percentile: with fewer, the value is one of a handful of outliers and
// repeats badly from run to run.
const tailGuard = 10

// median returns the middle value of xs, the mean of the middle two for
// an even count (0 for an empty sample).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, lowered to
// the highest percentile that still has tailGuard samples beyond it, and
// never below the median. used is the percentile actually reported, so a
// short sample says what its "p99" really is.
func percentile(xs []float64, p float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if p > 50 && rank > n-tailGuard {
		rank = n - tailGuard
	}
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses — the one the
// acceptance rule for this benchmark is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
