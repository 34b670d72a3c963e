package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond the percentile a run
// reports as its tail.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p among
// n sorted samples. p is taken in tenths of a percent so that 99 of
// 1000 samples is exactly rank 990, with no floating-point rounding.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	return min(max(r, 1), n)
}

// beyond returns how many of n samples lie above the nearest-rank
// percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// checkTail fails the run when fewer than minBeyond of its n latency
// samples lie beyond the tail percentile p it reports.
func checkTail(chk *checker, workload string, n int, p float64) {
	if b := beyond(n, p); b < minBeyond {
		chk.failf("%s: %d of %d latency samples lie beyond p%g, fewer than the %d its tail needs", workload, b, n, p, minBeyond)
	}
}

// percentile returns the nearest-rank percentile p of xs, which it
// sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
