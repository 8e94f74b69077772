package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest value with at least p% of the samples at or below
// it. It refuses when fewer than minBeyond samples lie beyond that rank;
// the median is exempt (it has half the samples on either side).
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(rank, 1)
	if beyond := n - rank; p != 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank p50; 0 for no samples.
func median(samples []float64) float64 {
	v, err := percentile(samples, 50)
	if err != nil {
		return 0
	}
	return v
}

// spread is the distance between the first and third quartile of values as
// a share of their median, the quartiles as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method). It needs
// four values; with fewer the spread is unknown and ok is false.
func spread(values []float64) (share float64, ok bool) {
	n := len(values)
	if n < 4 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / math.Abs(med), true
}
