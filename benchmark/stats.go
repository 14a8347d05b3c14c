package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method Python's statistics.quantiles(values, n=4) uses —
// the rule the acceptance spread (q3-q1 over the median) is computed with,
// so the numbers printed here are the numbers a reader can check against it.
// Fewer than two values have no spread: all three are the single value.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, as CPython computes it
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle cut point of quartiles.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// tailRank picks the tail percentile a sample of n supports: the highest
// percentile, capped at p99, that still has at least ten samples beyond it.
// It returns the 0-based index into the ascending sample and the percentile
// that index stands for. With fewer than eleven samples no percentile has
// ten beyond it; the median is the honest answer and idx, pct say so.
func tailRank(n int) (idx int, pct float64) {
	if n < 11 {
		return (n - 1) / 2, 50
	}
	idx = n - 11 // exactly ten samples lie beyond this one
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < idx {
		idx = p99
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// latencySummary is the median and supported tail of one latency sample.
type latencySummary struct {
	p50, tail float64
	tailPct   float64
	n         int
}

func summarize(samples []float64) latencySummary {
	n := len(samples)
	if n == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx, pct := tailRank(n)
	return latencySummary{p50: s[(n-1)/2], tail: s[idx], tailPct: pct, n: n}
}
