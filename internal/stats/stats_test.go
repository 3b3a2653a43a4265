package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("Value = %d, want 6", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add must panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.total != 100 {
		t.Fatalf("total = %d", h.total)
	}
	mean := h.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Fatalf("Mean = %v, want ~50.5ms", mean)
	}
	if h.min != float64(time.Millisecond) || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/Max = %v/%v", time.Duration(h.min), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Intn(10_000_000) + 1000)
		samples = append(samples, float64(v))
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(h.Quantile(q))
		want := samples[int(q*float64(len(samples)-1))]
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("Quantile(%v) = %v, want within 10%% of %v", q, got, want)
		}
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	if h.Quantile(0) < time.Millisecond || h.Quantile(1) > time.Millisecond {
		t.Fatal("single-sample quantiles must clamp to the sample")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range quantile must panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramExtremeSamples(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(time.Hour * 10_000) // beyond the last bucket
	if h.total != 2 {
		t.Fatal("extreme samples must be recorded")
	}
	if h.Quantile(1) != time.Hour*10_000 {
		t.Fatalf("max quantile = %v", h.Quantile(1))
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		for i := 0; i < 200; i++ {
			h.Observe(time.Duration(rng.Intn(1_000_000)))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(0, 10)
	s.Add(500*time.Millisecond, 5)
	s.Add(1500*time.Millisecond, 7)
	s.Add(10*time.Second, 1)
	if len(s.buckets) != 11 {
		t.Fatalf("%d buckets, want 11", len(s.buckets))
	}
	if s.At(0) != 15 || s.At(1) != 7 || s.At(10) != 1 {
		t.Fatalf("buckets = %v", s.buckets)
	}
	if s.At(-1) != 0 || s.At(99) != 0 {
		t.Fatal("out-of-range At must return 0")
	}
}

func TestSeriesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive interval must panic")
		}
	}()
	NewSeries(0)
}
