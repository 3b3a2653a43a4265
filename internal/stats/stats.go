// Package stats provides the measurement primitives the reproduction
// harness uses: byte/op counters, latency histograms with percentiles, and
// fixed-interval time series (for the paper's Figs 19-20 time-series plots).
package stats

import (
	"math"
	"time"
)

// Counter is a monotonically increasing tally (bytes, ops, switches).
type Counter struct {
	n int64
}

// Add increments the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: negative counter increment")
	}
	c.n += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Histogram collects duration samples and reports mean/percentiles. Samples
// are stored in logarithmic buckets (1% resolution across 1ns..1000s), so
// memory is constant and quantiles are approximate to bucket width.
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
	min    float64
	max    float64
}

const (
	histBuckets   = 2048
	histGrowth    = 1.02 // ~2% bucket width
	histMinSample = 1.0  // 1 ns
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets), min: math.Inf(1), max: math.Inf(-1)}
}

func bucketOf(v float64) int {
	if v < histMinSample {
		return 0
	}
	b := int(math.Log(v/histMinSample) / math.Log(histGrowth))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func bucketValue(b int) float64 {
	return histMinSample * math.Pow(histGrowth, float64(b)+0.5)
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	v := float64(d)
	if v < 0 {
		panic("stats: negative duration sample")
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	h.min = math.Min(h.min, v)
	h.max = math.Max(h.max, v)
}

// Mean returns the mean sample as a duration (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Max returns the largest observed sample (0 if empty).
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the approximate q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(b)
			// Clamp to observed extremes so tails are not inflated by
			// bucket midpoints.
			return time.Duration(math.Max(h.min, math.Min(h.max, v)))
		}
	}
	return time.Duration(h.max)
}

// Series is a fixed-interval time series: values are accumulated into the
// bucket for the current interval. It backs the paper's per-second plots.
type Series struct {
	interval time.Duration
	buckets  []float64
}

// NewSeries creates a series with the given sampling interval.
func NewSeries(interval time.Duration) *Series {
	if interval <= 0 {
		panic("stats: series interval must be positive")
	}
	return &Series{interval: interval}
}

// Add accumulates v into the bucket containing time t (measured from the
// series origin, typically simulation start).
func (s *Series) Add(t time.Duration, v float64) {
	if t < 0 {
		panic("stats: negative series time")
	}
	idx := int(t / s.interval)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += v
}

// At returns the accumulated value of bucket i (0 beyond the end).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}
