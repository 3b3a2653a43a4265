// Package paperref embeds the reference values the paper reports, figure by
// figure, so the reproduction can print and check measured-vs-paper
// comparisons (ROADMAP item 9, the reproduction scorecard). Values are
// quoted from the paper's text and figure annotations; where only a plot is
// available the entry records the approximate value with Approx set.
package paperref

import "fmt"

// Point is one quantitative claim from the paper.
type Point struct {
	Figure string  // "fig5", "fig14", ... ("text" for §-level claims)
	Metric string  // short machine-readable name
	Value  float64 // the paper's number
	Approx bool    // read off a plot rather than stated in text
	Desc   string  // the claim, as the paper words it
}

// Points returns every reference value, in paper order.
func Points() []Point {
	return []Point{
		// Fig 1 / §I summary (4KB random, RS(10,4) normalized to 3-Rep).
		{"fig1", "read_thr_ratio", 0.67, false, "RS(10,4) gives 33% lower read bandwidth than 3-replication"},
		{"fig1", "write_thr_ratio", 0.14, false, "RS(10,4) gives 86% lower write bandwidth"},
		{"fig1", "read_lat_ratio", 1.5, false, "50% longer read latency"},
		{"fig1", "write_lat_ratio", 7.6, false, "7.6x longer write latency"},
		{"fig1", "cpu_ratio", 10.7, false, "RS(10,4) consumes 10.7x more CPU cycles"},
		{"fig1", "read_ioamp_ratio", 10.4, false, "reads 10.4x more data from storage devices"},
		{"fig1", "write_ioamp_ratio", 57.7, false, "writes 57.7x more data to flash media for random writes"},

		// Fig 5 / §IV-A sequential writes.
		{"fig5", "rep_avg_mbps", 179, false, "3-replication ~179 MB/s average sequential write"},
		{"fig5", "rs63_avg_mbps", 36.8, false, "RS(6,3) 36.8 MB/s average"},
		{"fig5", "rs104_avg_mbps", 28.0, false, "RS(10,4) 28.0 MB/s average"},
		{"fig5", "rep_over_rs63_mid", 8.6, false, "RS(6,3) worse than 3-rep by 8.6x for 4-16KB"},
		{"fig5", "rs63_lat_ratio", 3.2, false, "RS(6,3) latency 3.2x longer on average"},
		{"fig5", "rs63_lat_ms", 544, false, "RS(6,3) average latency 544 ms"},
		{"fig5", "rs104_lat_ms", 683, false, "RS(10,4) average latency 683 ms"},
		{"fig5", "rep_lat_ms_max", 90, false, "3-replication below 90 ms for most block sizes"},

		// Fig 6 / §IV-A sequential reads.
		{"fig6", "rs63_degradation", 0.26, false, "RS(6,3) degrades sequential reads by 26% on average"},
		{"fig6", "rs104_degradation", 0.45, false, "RS(10,4) degrades by 45%"},
		{"fig6", "rs63_lat_ratio", 2.2, false, "RS(6,3) read latency 2.2x 3-replication"},
		{"fig6", "rs104_lat_ratio", 2.9, false, "RS(10,4) read latency 2.9x"},

		// Fig 7 / §IV-B random writes.
		{"fig7", "rs63_worse", 3.4, false, "RS(6,3) 3.4x worse random-write performance than 3-rep"},
		{"fig7", "rs104_worse", 4.9, false, "RS(10,4) 4.9x worse"},
		{"fig7", "rs63_rand_over_seq", 3.6, false, "RS(6,3) random writes 3.6x its own sequential writes"},
		{"fig7", "rs104_rand_over_seq", 3.2, false, "RS(10,4) random writes 3.2x its sequential"},

		// Fig 8 / §IV-B random reads.
		{"fig8", "rep_vs_rs63_diff", 0.10, false, "3-rep vs RS(6,3) random reads differ by <10%"},

		// Figs 9-10 / §V-A CPU.
		{"fig9", "seq_write_cpu", 0.044, false, "~4.4% total CPU for sequential writes (all schemes)"},
		{"fig9", "user_share", 0.72, false, "user mode takes 70-75% of cycles"},
		{"fig9", "rs63_rand_cpu", 0.45, false, "RS(6,3) random writes use 45% of total CPU"},
		{"fig9", "rs104_rand_cpu", 0.48, false, "RS(10,4) 48%"},
		{"fig9", "rep_rand_cpu", 0.24, false, "3-replication 24%"},
		{"fig10", "rep_seq_cpu", 0.009, false, "3-rep sequential reads use 0.9% CPU"},
		{"fig10", "rs63_seq_cpu", 0.050, false, "RS(6,3) up to 5.0%"},
		{"fig10", "rs104_seq_cpu", 0.061, false, "RS(10,4) up to 6.1%"},
		{"fig10", "rep_rand_cpu", 0.031, false, "3-rep random reads 3.1%"},
		{"fig10", "rs63_rand_cpu", 0.290, false, "RS(6,3) 29.0%"},
		{"fig10", "rs104_rand_cpu", 0.363, false, "RS(10,4) 36.3%"},

		// Figs 11-12 / §V-B context switches.
		{"fig11", "rs63_ctx_ratio", 4.7, false, "RS(6,3) 4.7x more context switches/MB for writes"},
		{"fig11", "rs104_ctx_ratio", 7.1, false, "RS(10,4) 7.1x"},
		{"fig12", "read_ctx_ratio", 12.5, false, "EC reads 10-15x more switches/MB than 3-rep"},

		// Figs 13-15 / §VI-A I/O amplification.
		{"fig13", "rep_1k_read_amp", 9, false, "3-rep 1KB sequential writes read-amplify 9x (4KB min I/O)"},
		{"fig13", "ec_read_amp_max", 20.8, false, "EC reads up to 20.8x the requested data"},
		{"fig13", "ec_write_amp_max", 82.5, false, "EC writes up to 82.5x (sequential)"},
		{"fig14", "ec_vs_rep_write_amp", 55, false, "random EC writes amplify up to 55x more than 3-rep"},
		{"fig15", "seq_read_amp", 1.0, false, "sequential reads show almost no amplification"},
		{"fig15", "rs63_rand_4k", 6.9, false, "RS(6,3) 6.9x greater read amp than 3-rep at 4KB"},
		{"fig15", "rs104_rand_4k", 10.4, false, "RS(10,4) 10.4x"},
		{"fig15", "span_32k", 2.0, false, "~2x amplification when requests span stripes (32KB)"},

		// Figs 16-17 / §VI-B private network.
		{"fig16", "rs63_seq_more", 2.4, false, "RS(6,3) 2.4x more write transfers than 3-rep (<32KB)"},
		{"fig16", "rs104_seq_more", 3.5, false, "RS(10,4) 3.5x more"},
		{"fig16", "rs63_rand_more", 53.3, false, "RS(6,3) 53.3x more under random writes"},
		{"fig16", "rs104_rand_more", 74.7, false, "RS(10,4) 74.7x more"},
		{"fig17", "heartbeat_bps", 20480, false, "replication reads: only ~20KB/s OSD heartbeat traffic"},
		{"fig17", "rs63_read_traffic", 6.8, false, "RS(6,3) up to 6.8x request size for reads"},
		{"fig17", "rs104_read_traffic", 9.1, false, "RS(10,4) up to 9.1x"},

		// Fig 18 / §VII-A data layout.
		{"fig18", "rep_over_ssd", 7, false, "cluster 3-rep random/seq ratio ~7x the bare SSD's (small reqs)"},
		{"fig18", "rs63_over_rep", 2.3, false, "RS(6,3) ratio 2.3x better than 3-rep's"},
		{"fig18", "rs104_over_rep", 2.5, false, "RS(10,4) 2.5x better"},
		{"fig18", "rs63_write_over_ssd", 3.7, false, "RS(6,3) random write throughput 3.7x the bare SSD ratio"},
		{"fig18", "rs104_write_over_ssd", 2.8, false, "RS(10,4) 2.8x"},

		// Figs 19-20 / §VII-B object management.
		{"fig19", "stalls", 1, false, "RS(6,3) periodically shows near-zero throughput from object init"},
		{"fig20", "cpu_lower", 0.20, false, "pristine-image CPU 20% lower than overwrites until convergence"},
		{"fig20", "ctx_lower", 0.37, false, "pristine context switches 37% lower"},
		{"fig20", "net_higher", 3.5, false, "pristine private network 3.5x busier"},
		{"fig20", "converge_s", 70, false, "converges after ~70 s"},

		// §X conclusions.
		{"text", "degraded_read_penalty", 1, true, "degraded/recovering EC reads reconstruct from k surviving chunks and do not outpace healthy reads (§IV-E)"},
		{"text", "net_max_ratio", 75, false, "EC private traffic up to 75x replication's"},
		{"text", "ctx_max_ratio", 21, false, "up to 21x more context switches"},
		{"text", "cpu_max_ratio", 12, false, "up to 12x more CPU cycles"},
	}
}

// Lookup finds one point by figure and metric.
func Lookup(fig, metric string) (Point, bool) {
	for _, p := range Points() {
		if p.Figure == fig && p.Metric == metric {
			return p, true
		}
	}
	return Point{}, false
}

// CheckResult is one structured measured-vs-paper verdict: the reference
// point, the measured value, the acceptance band it was held to and
// whether it landed inside. This is the machine-readable form of the
// comparisons that used to live only in table notes — bench reports embed
// it per sweep cell so CI can diff paper-band pass/fail across commits.
type CheckResult struct {
	Figure   string  `json:"figure"`
	Metric   string  `json:"metric"`
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Pass     bool    `json:"pass"`
	Desc     string  `json:"desc"`
}

// CheckWithin checks a measured value against an explicit acceptance band
// [lo, hi]. Bands are deliberately wide: they guard the paper's mechanisms
// and directions, not its exact testbed numbers.
func (p Point) CheckWithin(measured, lo, hi float64) CheckResult {
	return CheckResult{
		Figure:   p.Figure,
		Metric:   p.Metric,
		Paper:    p.Value,
		Measured: measured,
		Lo:       lo,
		Hi:       hi,
		Pass:     measured >= lo && measured <= hi,
		Desc:     p.Desc,
	}
}

// String renders the verdict on one line.
func (r CheckResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %s/%s: measured %.3g in [%.3g, %.3g] (paper %.3g) — %s",
		verdict, r.Figure, r.Metric, r.Measured, r.Lo, r.Hi, r.Paper, r.Desc)
}
