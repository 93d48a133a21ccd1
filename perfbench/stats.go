package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile of sorted samples, and the
// number of samples strictly beyond its rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99, 95, 90}

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// tail picks the highest of p99, p95 and p90 with at least minBeyond samples
// beyond it.  With too few samples for any of them it falls back to the
// median, the highest percentile such a run can support.
func tail(sorted []float64) (value, pct float64, beyond int) {
	for _, p := range tailPercentiles {
		if v, b := percentile(sorted, p); b >= minBeyond {
			return v, p, b
		}
	}
	v, b := percentile(sorted, 50)
	return v, 50, b
}

// median of unsorted samples (0 when there are none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanInts(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return ratio(float64(sum), float64(len(xs)))
}
