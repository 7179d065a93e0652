package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

// TestTail pins the reporting rule: the highest percentile with at
// least ten samples beyond it, and the sample count.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		okay bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v, n, ok := tail(xs)
		if ok != c.okay || pct != c.pct || n != c.n {
			t.Errorf("tail(n=%d) = p%v ok=%v n=%d, want p%v ok=%v", c.n, pct, ok, n, c.pct, c.okay)
			continue
		}
		if !ok {
			continue
		}
		if want := quantile(xs, pct/100); v != want {
			t.Errorf("tail(n=%d) value %v, want %v", c.n, v, want)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("tail(n=%d) p%v has %d samples beyond it, want >= 10", c.n, pct, beyond)
		}
	}
}
