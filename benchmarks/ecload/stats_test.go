package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{200, 0.95, 190, true},  // exactly 10 beyond
		{199, 0.95, 190, false}, // rank 190 of 199 leaves 9
		{1000, 0.99, 990, true}, // 10 beyond
		{480, 0.95, 456, true},  // 24 beyond
		{12, 0.95, 12, false},   // a sweep's 12 cells: the slowest, no tail to speak of
		{100, 0.5, 50, true},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.supported)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %g, %v", v, ok)
	}
	in := []float64{3, 1, 2}
	percentile(in, 0.5)
	if in[0] != 3 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd: %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %g", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the arithmetic the driver judges spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("1..10: %g, %g; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 { // it extrapolates past two samples, as Python does
		t.Errorf("two samples: %g, %g; want 7.5, 22.5", q1, q3)
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("one sample: %g, want NaN", q1)
	}
}
