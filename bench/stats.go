package main

import "sort"

// median returns the middle of xs (mean of the middle two for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// so spreads computed here agree with the acceptance procedure. One
// value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0 (a bypassed layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
