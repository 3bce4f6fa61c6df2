package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 when xs is empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first. p75 is the floor for workloads whose runs collect only a
// few dozen samples (the sweep's grid records, serve-replay's batches).
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile picks the highest candidate percentile that leaves at least
// minBeyond of n samples beyond it. ok is false when even the lowest
// candidate leaves fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(n, c) >= minBeyond {
			return c, true
		}
	}
	return tailCandidates[len(tailCandidates)-1], false
}

// beyond is the number of n samples that rank above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// percentName renders a quantile as the p-label operators read ("p99.9").
func percentName(q float64) string {
	switch q {
	case 0.999:
		return "p99.9"
	case 0.99:
		return "p99"
	case 0.9:
		return "p90"
	case 0.75:
		return "p75"
	}
	return "p50"
}
