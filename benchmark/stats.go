package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of an ascending
// slice; 0 when it is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailQuantile picks the percentile reported under a "p99" name: 0.99
// from 1000 samples up, else the highest one that still leaves ten
// samples beyond it (the choosing-metrics rule), never below the median.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// latencySummary is a median and tail of one pooled sample set.
type latencySummary struct {
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_quantile"`
	N     int     `json:"n"`
}

func summarize(samples []float64) latencySummary {
	s := sorted(samples)
	q := tailQuantile(len(s))
	return latencySummary{P50: quantile(s, 0.5), Tail: quantile(s, q), TailQ: q, N: len(s)}
}

// spread is the interquartile range over the median, as the driver
// computes it (exclusive quartiles, statistics.quantiles(n=4)).
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k)*float64(n+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	m := at(2)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
