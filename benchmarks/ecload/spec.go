package main

// The benchmark's contract: workload names, metric names, units, directions
// and bounds. BENCHMARK.json at the repo root says the same thing to the
// driver; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the parent's median it may worsen
}

const (
	wlLarge    = "svc-large"
	wlSmall    = "svc-small"
	wlDegraded = "svc-degraded"
	wlSim      = "sim-sweep"
)

var workloads = []workloadSpec{
	{wlLarge, "4 MiB objects over sockets: bytes dominate (socket copies, whole-object buffers, stream codec); per-request fixed cost is negligible"},
	{wlSmall, "8 KiB objects, 70/30 GET/PUT, closed loop then fixed-rate open loop, then kill -9 and restart: per-request fixed cost (admission, placement, WAL fsync, fan-out) dominates"},
	{wlDegraded, "1 MiB objects with OSD 0 partitioned: reconstructing reads, breaker skips and 5-of-6 degraded writes, the resilience path healthy workloads never run"},
	{wlSim, "in-process simulator sweep, 24 cells with a seed-fixed event count: sim/core/ssd/netsim/store/crush do all the work and the service none"},
}

// endToEnd metrics are reported by every workload on an untraced run. On
// sim-sweep "put"/"get" mean the write/read cells, MB and ops are simulated,
// seconds are host seconds, and a latency sample is one cell's host wall
// time (see benchmarks/README.md for each definition per workload). Tail
// latency is per-layer only: on this sandbox a p95 spreads wider than any
// bound the driver allows.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"put_mbps", "MB/s", "higher", 0.25},
	{"get_mbps", "MB/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.05},
}

// perLayer metrics are reported by every workload on a traced run; a layer
// that does no work on a workload reports 0 (the service on sim-sweep, the
// simulator core on svc-*).
var perLayer = []metricSpec{
	// Untraced pass: counters read at the process boundary.
	{"service.gate_cpu_user_ms_per_op", "ms", "lower", 0},
	{"service.gate_cpu_sys_ms_per_op", "ms", "lower", 0},
	{"service.osd_cpu_user_ms_per_op", "ms", "lower", 0},
	{"service.osd_cpu_sys_ms_per_op", "ms", "lower", 0},
	{"service.gate_ctx_switches_per_op", "count", "lower", 0},
	{"service.osd_ctx_switches_per_op", "count", "lower", 0},
	{"service.osd_bytes_in_per_user_byte", "ratio", "lower", 0},
	{"service.osd_bytes_out_per_user_byte", "ratio", "lower", 0},
	{"service.shard_ops_per_op", "count", "lower", 0},
	{"service.shard_put_mean_ms", "ms", "lower", 0},
	{"service.shard_get_mean_ms", "ms", "lower", 0},
	{"service.shard_delete_mean_ms", "ms", "lower", 0},
	{"service.osd_op_mean_ms", "ms", "lower", 0},
	{"service.degraded_reads_frac", "ratio", "lower", 0},
	{"service.reconstructed_shards_per_get", "count", "lower", 0},
	{"service.degraded_writes_frac", "ratio", "lower", 0},
	{"service.breaker_skipped", "count", "lower", 0},
	{"service.breaker_trips", "count", "lower", 0},
	{"service.shard_retries", "count", "lower", 0},
	{"service.hedged_reads", "count", "lower", 0},
	{"service.hedge_wins", "count", "higher", 0},
	{"service.admission_rejected", "count", "lower", 0},
	{"service.wal_records", "count", "lower", 0},
	{"service.wal_compactions", "count", "lower", 0},
	{"service.osd_rss_peak_mb", "MB", "lower", 0},
	{"service.put_p95_ms", "ms", "lower", 0},
	{"service.get_p95_ms", "ms", "lower", 0},
	{"service.put_p99_ms", "ms", "lower", 0},
	{"service.get_p99_ms", "ms", "lower", 0},
	{"service.slo_miss_frac", "ratio", "lower", 0},
	{"ecload.gen_late_p95_ms", "ms", "lower", 0},
	{"ecload.backlog_max", "count", "lower", 0},
	{"ecload.achieved_over_offered", "ratio", "higher", 0},
	{"ecload.client_cpu_ms_per_op", "ms", "lower", 0},
	{"ecload.client_allocs_per_op", "count", "lower", 0},
	{"ecload.build_s", "s", "lower", 0},
	{"ecload.failed_frac", "ratio", "lower", 0},
	{"ecload.trace_overhead_frac", "ratio", "lower", 0},
	{"core.wall_ms.rep3_read", "ms", "lower", 0},
	{"core.wall_ms.rep3_write", "ms", "lower", 0},
	{"core.wall_ms.rs63_read", "ms", "lower", 0},
	{"core.wall_ms.rs63_write", "ms", "lower", 0},
	{"core.wall_ms.rs104_read", "ms", "lower", 0},
	{"core.wall_ms.rs104_write", "ms", "lower", 0},
	{"core.events.rep3_read", "count", "lower", 0},
	{"core.events.rep3_write", "count", "lower", 0},
	{"core.events.rs63_read", "count", "lower", 0},
	{"core.events.rs63_write", "count", "lower", 0},
	{"core.events.rs104_read", "count", "lower", 0},
	{"core.events.rs104_write", "count", "lower", 0},
	{"sim.events_total", "count", "lower", 0},
	{"sim.virtual_s", "s", "higher", 0},
	{"sim.wall_s", "s", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"paperref.checks_passed", "count", "higher", 0},
	{"paperref.checks_total", "count", "higher", 0},
	// Traced pass: spans recorded by the harness around each layer.
	{"service.http_front_ms.put", "ms", "lower", 0},
	{"service.http_front_ms.get", "ms", "lower", 0},
	{"service.handler_self_ms.put", "ms", "lower", 0},
	{"service.handler_self_ms.get", "ms", "lower", 0},
	{"service.shard_fanout_ms.put", "ms", "lower", 0},
	{"service.shard_fanout_ms.get", "ms", "lower", 0},
	{"service.shard_slowest_over_median.put", "ratio", "lower", 0},
	{"service.shard_slowest_over_median.get", "ratio", "lower", 0},
	// Stage replay: each layer's public call timed alone at the workload's sizes.
	{"qos.admit_us", "us", "lower", 0},
	{"service.place_us", "us", "lower", 0},
	{"crush.select_ns", "ns", "lower", 0},
	{"rs.stream_encode_ms", "ms", "lower", 0},
	{"rs.stream_decode_ms", "ms", "lower", 0},
	{"rs.stream_decode_degraded_ms", "ms", "lower", 0},
	{"service.wal_append_ms", "ms", "lower", 0},
	{"service.memstore_put_us", "us", "lower", 0},
	{"service.memstore_get_us", "us", "lower", 0},
	{"service.osdclient_put_ms", "ms", "lower", 0},
	{"service.osdclient_get_ms", "ms", "lower", 0},
	// Kernel and engine floor, the same on every workload.
	{"gf.mul_sources_gbps", "GB/s", "higher", 0},
	{"rs.encode_mbps", "MB/s", "higher", 0},
	{"rs.reconstruct_mbps", "MB/s", "higher", 0},
	{"matrix.invert_us", "us", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.ns_per_switch", "ns", "lower", 0},
	{"ssd.write4k_host_ns", "ns", "lower", 0},
	{"netsim.send_host_ns", "ns", "lower", 0},
}

// metric is one reported value; samples is how many measurements it rests on.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects a run's values by name and fills in units from the spec.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, samples int) {
	m[name] = metric{Value: v, Samples: samples}
}

// finish keeps exactly the metrics of specs, in their units; one the run did
// not set is a layer that did no work and reads 0.
func (m metricSet) finish(specs []metricSpec) metricSet {
	out := make(metricSet, len(specs))
	for _, s := range specs {
		v := m[s.Name]
		v.Unit = s.Unit
		out[s.Name] = v
	}
	return out
}
