package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPermille is the ladder tail picks from, highest first, in tenths
// of a percent so the "ten samples beyond" test is exact integer math.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tail reports the highest percentile of xs that has at least ten
// samples beyond it, its value and the sample count. ok is false when
// not even the median is supported (fewer than 20 samples); the
// percentile is then 0 and the value NaN.
func tail(xs []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, quantile(xs, float64(pm)/1000), n, true
		}
	}
	return 0, math.NaN(), n, false
}
