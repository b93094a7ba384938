package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-quantile of xs (0 < p <= 1) and
// how many samples rank strictly above it.
func quantile(xs []float64, p float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted(xs)[rank], n - 1 - rank
}

// percentile is a quantile that obeys the reporting rule: at least
// minBeyond samples must lie beyond it. When the requested p has too
// few, p steps down by a hundredth until the rule holds; below the
// median it stops and the median is reported. The p actually used is
// returned so the caller can record it beside the value.
func percentile(xs []float64, p float64) (v, used float64) {
	for q := p; q > 0.5; q = math.Round((q-0.01)*100) / 100 {
		if v, beyond := quantile(xs, q); beyond >= minBeyond {
			return v, q
		}
	}
	return median(xs), 0.5
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest element of xs, or 0 when empty.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
