package main

import (
	"math"
	"sort"
)

// minBeyond is the choosing-metrics rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// supportedTail is the highest of the usual percentiles that n samples
// support, or 50 when even p90 is out of reach.
func supportedTail(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supports(n, p) {
			return p
		}
	}
	return 50
}

func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9 // 100-99.9 is not exact
}

// percentile is the nearest-rank percentile of an ascending series.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), because that
// is how the acceptance check computes it.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
