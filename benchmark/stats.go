package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	// The small slack keeps 99.9% of 10,000 at rank 9,990: in floating
	// point the product lands a hair above the integer.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// candidatePercentiles are the tail percentiles a report may quote.
var candidatePercentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a quoted percentile.
const minBeyond = 10

// highestSupported returns the highest candidate percentile that still has
// minBeyond samples beyond its nearest rank, and false when even the
// median does not (fewer than 2·minBeyond samples).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidatePercentiles {
		if n-rankOf(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s, n := sortedCopy(v), len(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// relDiff is |a−b| relative to the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m <= 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
