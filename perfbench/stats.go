package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// summary describes one metric's samples within a run.
type summary struct {
	N           int
	Q1, Med, Q3 float64
	// Tail is the highest of p99, p90 and p75 with minBeyond samples above it
	// (TailP = 0 and Tail = NaN when there are too few samples).
	TailP, Tail float64
}

// summarize returns the quartiles and tail percentile of xs.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	sm := summary{N: len(s), Q1: q1, Med: med, Q3: q3, Tail: math.NaN()}
	if p, ok := tailPercentile(len(s), 99, 90, 75); ok {
		sm.TailP, sm.Tail = p, percentile(s, p)
	}
	return sm
}

// median is the middle quartile of xs.
func median(xs []float64) float64 { return summarize(xs).Med }

// quartiles returns the three cut points of sorted xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so that figures agree with anything recomputed from a report.
// A single sample is every quartile; no samples give NaN.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	switch len(sorted) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples of n that lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest of the candidate percentiles that keeps
// at least minBeyond of n samples above it; ok is false when none does.
func tailPercentile(n int, candidates ...float64) (p float64, ok bool) {
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && (!ok || c > p) {
			p, ok = c, true
		}
	}
	return p, ok
}
