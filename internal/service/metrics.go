package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A minimal Prometheus-text metrics registry: counters, gauges and
// cumulative histograms, rendered deterministically (sorted by name) on
// /metrics. Label sets are flattened into the series name by the caller
// (`ecgate_requests_total{op="get",code="200"}`), which keeps the registry
// a flat map and the exposition format still scrapeable.

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defBuckets are the request-latency histogram bounds in seconds.
var defBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a cumulative-bucket latency histogram.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64   // nanoseconds, rendered as seconds
	total  atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{bounds: defBuckets, counts: make([]atomic.Int64, len(defBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket holding the q-th observation — a conservative estimate,
// never below the true value while it lands in a finite bucket. With no
// observations it returns 0; when the quantile falls in the +Inf bucket
// it returns the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return b
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a named collection of metric series.
type Registry struct {
	mu     sync.Mutex
	order  []string
	series map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]any{}}
}

func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		return s
	}
	s := mk()
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.lookup(name, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	return r.lookup(name, func() any { return newHistogram() }).(*Histogram)
}

// WritePrometheus renders every series in Prometheus text exposition
// format, sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	series := make(map[string]any, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		switch s := series[name].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Value()); err != nil {
				return err
			}
		case *Histogram:
			// Histogram names carry optional labels: "base{a="b"}" renders
			// bucket series as "base_bucket{a="b",le="..."}".
			base, labels := splitLabels(name)
			cum := int64(0)
			for i, b := range s.bounds {
				cum += s.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", base, labels, b, cum); err != nil {
					return err
				}
			}
			cum += s.counts[len(s.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %g\n", suffixed(base, labels, "_sum"), time.Duration(s.sum.Load()).Seconds()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", suffixed(base, labels, "_count"), s.total.Load()); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitLabels separates `name{a="b"}` into ("name", `a="b",`); a plain
// name yields ("name", "").
func splitLabels(name string) (base, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			inner := name[i+1 : len(name)-1]
			if inner != "" {
				inner += ","
			}
			return name[:i], inner
		}
	}
	return name, ""
}

// suffixed renders "base_sum{labels}" (labels' trailing comma trimmed), or
// plain "base_sum" when there are no labels.
func suffixed(base, labels, suffix string) string {
	if labels == "" {
		return base + suffix
	}
	return base + suffix + "{" + labels[:len(labels)-1] + "}"
}

// shardOps are the shard-level operations, the op label of every per-op
// series.
var shardOps = []string{"put", "get", "delete"}

// okCode is the status each op answers with when it succeeds, at the
// gateway and the daemon alike.
var okCode = map[string]int{"put": 200, "get": 200, "delete": 204}

// requestsSeries names one {op,code} series of a requests-by-outcome
// counter family (ecgate_requests_total, ecstored_ops_total).
func requestsSeries(family, op string, code int) string {
	return fmt.Sprintf("%s{op=%q,code=\"%d\"}", family, op, code)
}

// opSeries is one op's share of the per-op series.
type opSeries struct {
	ok      *Counter   // ecgate_requests_total{op,code=okCode[op]}
	request *Histogram // ecgate_request_seconds{op}
	shard   *Histogram // ecgate_shard_seconds{op}: one sample per scored attempt
	retries *Counter   // ecgate_shard_retries_total{op}
	errors  *Counter   // ecgate_shard_errors_total{op}
}

// gatewaySeries holds every fixed-name gateway series, resolved once in
// NewGateway so the request path never formats a series name or takes the
// registry mutex for them. What stays dynamic is
// ecgate_requests_total{op,code} for a request that failed, a
// tenant's bundle on its first request (tenantSeries) and one
// ecgate_breaker_state gauge per OSD (held by its osdPath).
type gatewaySeries struct {
	op map[string]*opSeries

	inflight, objects, bytesStored   *Gauge
	bytesIn, bytesOut                *Counter
	admissionRejected                *Counter
	breakerTrips, breakerSkipped     *Counter
	hedgedReads, hedgeWins           *Counter
	degradedWrites, degradedReads    *Counter
	reconstructedShards, failedReads *Counter
	walRecords, walCompactions       *Counter
}

func newGatewaySeries(r *Registry) *gatewaySeries {
	s := &gatewaySeries{
		op:                  map[string]*opSeries{},
		inflight:            r.Gauge("ecgate_inflight"),
		objects:             r.Gauge("ecgate_objects"),
		bytesStored:         r.Gauge("ecgate_bytes_stored"),
		bytesIn:             r.Counter("ecgate_bytes_in_total"),
		bytesOut:            r.Counter("ecgate_bytes_out_total"),
		admissionRejected:   r.Counter("ecgate_admission_rejected_total"),
		breakerTrips:        r.Counter("ecgate_breaker_trips_total"),
		breakerSkipped:      r.Counter("ecgate_breaker_skipped_total"),
		hedgedReads:         r.Counter("ecgate_hedged_reads_total"),
		hedgeWins:           r.Counter("ecgate_hedge_wins_total"),
		degradedWrites:      r.Counter("ecgate_degraded_writes_total"),
		degradedReads:       r.Counter("ecgate_degraded_reads_total"),
		reconstructedShards: r.Counter("ecgate_reconstructed_shards_total"),
		failedReads:         r.Counter("ecgate_failed_reads_total"),
		walRecords:          r.Counter("ecgate_wal_records_total"),
		walCompactions:      r.Counter("ecgate_wal_compactions_total"),
	}
	for _, op := range shardOps {
		s.op[op] = &opSeries{
			ok:      r.Counter(requestsSeries("ecgate_requests_total", op, okCode[op])),
			request: r.Histogram(fmt.Sprintf("ecgate_request_seconds{op=%q}", op)),
			shard:   r.Histogram(fmt.Sprintf("ecgate_shard_seconds{op=%q}", op)),
			retries: r.Counter(fmt.Sprintf("ecgate_shard_retries_total{op=%q}", op)),
			errors:  r.Counter(fmt.Sprintf("ecgate_shard_errors_total{op=%q}", op)),
		}
	}
	return s
}
