package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ecarray/internal/service"
)

// svcWorkload is the fixed shape of one svc-* workload. Work is a count of
// ops, not a duration, so byte and op counters repeat exactly for a seed;
// the counts are what this two-core box completes in about one second of
// --seconds, so a run measures for about that long.
type svcWorkload struct {
	keys, size int
	partition  bool // partition OSD 0 at the gateway once the keys are loaded
	crash      bool // finish with kill -9 of the gateway and a read-back
	// measure runs the measured phases for the given seconds.
	measure func(ctx context.Context, r *svcRun, rng *rand.Rand, seconds float64)
}

// rounds is how many times a workload repeats its phases. Every timing a
// run reports is the median over its rounds, so a stretch of the run that
// the sandbox disturbed does not move it unless it covers half the rounds.
const rounds = 8

// Open-loop rate and latency limit of svc-small: about 40 % of what its
// closed loop reaches on this box, so no backlog builds.
const (
	openRate   = 150.0 // ops/s
	sloLimitMs = 50.0
)

var svcWorkloads = map[string]svcWorkload{
	// 64 × 4 MiB ring; a round is overwrite PUTs, then GETs.
	wlLarge: {keys: 64, size: 4 << 20, measure: func(ctx context.Context, r *svcRun, rng *rand.Rand, seconds float64) {
		n := perClient(19 * seconds)
		for i := 0; i < rounds; i++ {
			r.beginRound()
			put := runClosed(ctx, r.clients, ringOps(rng, r.ks.keys(), n, opPut))
			get := runClosed(ctx, r.clients, ringOps(rng, r.ks.keys(), n, opGet))
			r.endRound([]phase{put, get}, nil)
		}
	}},
	// 600 × 8 KiB; a round is a closed loop of mixed ops (capacity), then
	// an open loop of Poisson arrivals at a fixed rate (latency).
	wlSmall: {keys: 600, size: 8 << 10, crash: true, measure: func(ctx context.Context, r *svcRun, rng *rand.Rand, seconds float64) {
		nClosed := atLeast1(120 * seconds / rounds)
		nOpen := atLeast1(openRate * 0.6 * seconds / rounds)
		for i := 0; i < rounds; i++ {
			r.beginRound()
			mix := runClosed(ctx, r.clients, byClient(mixedOps(rng, r.ks.keys(), nClosed, 0.7)))
			open := runOpen(ctx, r.clients, mixedOps(rng, r.ks.keys(), nOpen, 0.7), poissonDue(rng, nOpen, openRate))
			r.endRound([]phase{mix}, &open)
		}
	}},
	// 256 × 1 MiB ring with OSD 0 cut off; a round is reconstructing GETs,
	// then 5-of-6 overwrite PUTs.
	wlDegraded: {keys: 256, size: 1 << 20, partition: true, measure: func(ctx context.Context, r *svcRun, rng *rand.Rand, seconds float64) {
		n := perClient(50 * seconds)
		for i := 0; i < rounds; i++ {
			r.beginRound()
			get := runClosed(ctx, r.clients, ringOps(rng, r.ks.keys(), n, opGet))
			put := runClosed(ctx, r.clients, ringOps(rng, r.ks.keys(), n, opPut))
			r.endRound([]phase{put, get}, nil)
		}
	}},
}

func atLeast1(x float64) int { return int(math.Max(1, math.Round(x))) }

// perClient turns a run's op count for one kind into ops per client per round.
func perClient(total float64) int { return atLeast1(total / (rounds * numClients)) }

func (ks *keyset) keys() int { return len(ks.last) }

// scaledKeys shrinks a key set with the run, so a one-second check does not
// spend ten seconds loading keys; from 20 s up the set has its full size.
func scaledKeys(keys int, seconds float64) int {
	n := int(float64(keys) * math.Min(1, seconds/20))
	return max(n-n%numClients, 2*numClients)
}

// svcRun is one pass of a svc-* workload: the cluster, the load, and what
// was measured.
type svcRun struct {
	name    string
	w       svcWorkload
	cl      *cluster
	ks      *keyset
	clients []*client

	setupS []float64

	perRound           []roundStats
	putLat, getLat     []float64 // ms: every latency sample, for the pooled p99
	puts, gets         int       // acknowledged, measured phases
	putBytes, getBytes int64
	attempted, failed  int64
	degradedGets       int
	open               []phase // svc-small's open-loop phases
	roundCPU           float64 // daemon CPU ms when the current round began

	before, after         counters
	selfBefore, selfAfter procSample
	mallocs               uint64
	stored                int64
}

// roundStats is what one round measured; a run reports the median of each.
type roundStats struct {
	putMBps, getMBps, opsPS        float64
	putP50, getP50, putP95, getP95 float64 // ms
	cpuPerOp                       float64 // daemon CPU ms per acknowledged op
}

func (r *svcRun) absorb(p phase) {
	for _, s := range p.samples {
		r.attempted++
		if s.failed {
			r.failed++
			continue
		}
		if s.kind == opPut {
			r.puts++
			r.putBytes += int64(s.bytes)
		} else {
			r.gets++
			r.getBytes += int64(s.bytes)
			if s.degraded {
				r.degradedGets++
			}
		}
	}
}

// daemonCPU is the user + system CPU the gateway and the OSDs have used, ms.
func (r *svcRun) daemonCPU() float64 {
	var sum float64
	pids := []int{r.cl.gate.pid()}
	for _, d := range r.cl.osds {
		pids = append(pids, d.pid())
	}
	for _, pid := range pids {
		if pid == 0 {
			continue // the traced gateway lives in this process
		}
		text, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue // a dead daemon fails the ops that needed it
		}
		if u, s, err := parseProcStat(string(text)); err == nil {
			sum += u + s
		}
	}
	return sum
}

func (r *svcRun) beginRound() { r.roundCPU = r.daemonCPU() }

// endRound closes a round. The closed-loop phases give MB/s per op kind
// (over the phase that carried the kind) and ops/s. Latency comes from the
// open-loop phase when the round has one, else from the closed-loop phases.
// Every phase counts toward CPU per op.
func (r *svcRun) endRound(closed []phase, open *phase) {
	cpu := r.daemonCPU() - r.roundCPU
	acked := r.puts + r.gets
	var st roundStats
	var ops int
	var wall float64
	for _, p := range closed {
		r.absorb(p)
		secs := p.wall.Seconds()
		np, pb := p.count(opPut)
		ng, gb := p.count(opGet)
		if np > 0 {
			st.putMBps = float64(pb) / 1e6 / secs
		}
		if ng > 0 {
			st.getMBps = float64(gb) / 1e6 / secs
		}
		ops += np + ng
		wall += secs
	}
	st.opsPS = ratio(float64(ops), wall)

	timed := closed
	if open != nil {
		r.absorb(*open)
		r.open = append(r.open, *open)
		timed = []phase{*open}
	}
	var putLat, getLat []float64
	for _, p := range timed {
		for _, s := range p.samples {
			switch {
			case s.failed: // counted in failed and as an SLO miss; it has no latency
			case s.kind == opPut:
				putLat = append(putLat, s.ms)
			default:
				getLat = append(getLat, s.ms)
			}
		}
	}
	st.putP50, st.getP50 = median(putLat), median(getLat)
	st.putP95, _ = percentile(putLat, 0.95)
	st.getP95, _ = percentile(getLat, 0.95)
	r.putLat = append(r.putLat, putLat...)
	r.getLat = append(r.getLat, getLat...)

	st.cpuPerOp = ratio(cpu, float64(r.puts+r.gets-acked))
	r.perRound = append(r.perRound, st)
}

func (r *svcRun) ops() float64 { return float64(r.puts + r.gets) }

// setUp boots a cluster in dir and loads every key once.
func (h *harness) setUp(ctx context.Context, r *svcRun, seed int64, tr *tracer) error {
	wd, err := openWorkdir(filepath.Join(h.workRoot, "cluster"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	if r.cl, err = startCluster(ctx, h.binDir, wd, tr); err != nil {
		wd.remove()
		return err
	}
	r.ks = newKeyset(r.name, r.w.keys, r.w.size, seed)
	r.clients = newClients(r.cl.gateURL, r.ks, tr, h.warn)
	// Loading is not traced: the span tree describes the measured ops only.
	loaders := newClients(r.cl.gateURL, r.ks, nil, h.warn)
	load := runClosed(ctx, loaders, ringOps(rand.New(rand.NewSource(seed)), r.w.keys, r.w.keys/numClients, opPut))
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	for _, s := range load.samples {
		if s.failed {
			return fmt.Errorf("%s: preload failed\n%s", r.name, r.cl.gateLogTail())
		}
	}
	return nil
}

func (r *svcRun) tearDown() {
	if r.cl != nil {
		r.cl.stop()
		r.cl.wd.remove()
		r.cl = nil
	}
}

// runSvc runs one pass of workload name. Set-up is repeated setups times
// (the last one is measured on) so setup_s can be a median. With tr set
// the gateway runs in-process under the harness's span recorders and the
// crash leg, which needs a process to kill, is skipped. The caller owns
// r.cl until it calls r.tearDown.
func (h *harness) runSvc(ctx context.Context, name string, seed int64, seconds float64, setups int, tr *tracer) (r *svcRun, err error) {
	r = &svcRun{name: name, w: svcWorkloads[name]}
	r.w.keys = scaledKeys(r.w.keys, seconds)
	defer func() {
		if err != nil {
			r.tearDown()
		}
	}()
	for i := 0; i < setups; i++ {
		r.tearDown()
		if err := h.setUp(ctx, r, seed, tr); err != nil {
			return r, err
		}
	}
	if r.w.partition {
		if err := r.cl.admin.SetFault(ctx, 0, service.FaultSpec{Partition: true}); err != nil {
			return r, fmt.Errorf("partition osd 0: %w", err)
		}
	}

	if r.before, err = r.cl.readCounters(ctx); err != nil {
		return r, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs
	if r.selfBefore, err = readProc(os.Getpid()); err != nil {
		return r, err
	}

	r.w.measure(ctx, r, rand.New(rand.NewSource(seed^0x5eed)), seconds)

	if r.selfAfter, err = readProc(os.Getpid()); err != nil {
		return r, err
	}
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
	if r.after, err = r.cl.readCounters(ctx); err != nil {
		return r, err
	}
	// A PUT deletes the generation it supersedes before it answers, so
	// nothing is in flight and the OSDs' byte counts are settled.
	if r.stored, err = r.cl.storedBytes(ctx); err != nil {
		return r, err
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}

	if r.w.partition && r.degradedGets == 0 {
		h.warn("%s: no GET came back marked X-EC-Degraded", name)
		r.failed++
	}
	if r.w.crash && tr == nil {
		if err := r.cl.crashGate(ctx); err != nil {
			return r, err
		}
		// Acknowledged means durable: every key read back after the
		// restart must hold its last acknowledged bytes.
		n := min(200, int(math.Ceil(10*seconds)))
		rng := rand.New(rand.NewSource(seed ^ 0xc4a5))
		back := make([]op, n)
		for i := range back {
			back[i] = op{opGet, rng.Intn(r.w.keys)}
		}
		for _, s := range runClosed(ctx, r.clients, byClient(back)).samples {
			r.attempted++
			if s.failed {
				r.failed++
			}
		}
	}
	return r, ctx.Err()
}

func (r *svcRun) medianOverRounds(f func(roundStats) float64) float64 {
	xs := make([]float64, len(r.perRound))
	for i, st := range r.perRound {
		xs[i] = f(st)
	}
	return median(xs)
}

// endToEnd fills the metrics a user of the service sees: each timing is
// the median over the run's rounds.
func (r *svcRun) endToEnd(m metricSet) {
	over := r.medianOverRounds
	n := len(r.perRound)
	m.set("setup_s", median(r.setupS), len(r.setupS))
	m.set("put_mbps", over(func(s roundStats) float64 { return s.putMBps }), n)
	m.set("get_mbps", over(func(s roundStats) float64 { return s.getMBps }), n)
	m.set("ops_per_s", over(func(s roundStats) float64 { return s.opsPS }), n)
	m.set("put_p50_ms", over(func(s roundStats) float64 { return s.putP50 }), len(r.putLat))
	m.set("get_p50_ms", over(func(s roundStats) float64 { return s.getP50 }), len(r.getLat))
	m.set("cpu_ms_per_op", over(func(s roundStats) float64 { return s.cpuPerOp }), n)
	m.set("rss_peak_mb", r.after.gateProc.HWMMB, 1)
	m.set("stored_bytes_per_user_byte", ratio(float64(r.stored), float64(r.w.keys)*float64(r.w.size)), r.w.keys)
}

// boundary fills the per-layer metrics read at the process boundary.
func (r *svcRun) boundary(m metricSet) {
	ops, n := r.ops(), int(r.ops())
	gate := r.after.gateProc.sub(r.before.gateProc)
	osd := r.after.osdProc.sub(r.before.osdProc)
	m.set("service.gate_cpu_user_ms_per_op", ratio(gate.UserMs, ops), n)
	m.set("service.gate_cpu_sys_ms_per_op", ratio(gate.SysMs, ops), n)
	m.set("service.osd_cpu_user_ms_per_op", ratio(osd.UserMs, ops), n)
	m.set("service.osd_cpu_sys_ms_per_op", ratio(osd.SysMs, ops), n)
	m.set("service.gate_ctx_switches_per_op", ratio(float64(gate.CtxSwitches), ops), n)
	m.set("service.osd_ctx_switches_per_op", ratio(float64(osd.CtxSwitches), ops), n)
	m.set("service.osd_rss_peak_mb", r.after.osdProc.HWMMB, numOSDs)

	g := func(series string) float64 { return promSum(r.after.gate, series) - promSum(r.before.gate, series) }
	o := func(series string) float64 { return promSum(r.after.osd, series) - promSum(r.before.osd, series) }
	m.set("service.osd_bytes_in_per_user_byte", ratio(o("ecstored_bytes_in_total"), float64(r.putBytes)), r.puts)
	m.set("service.osd_bytes_out_per_user_byte", ratio(o("ecstored_bytes_out_total"), float64(r.getBytes)), r.gets)
	shardOps := g("ecgate_shard_seconds_count")
	m.set("service.shard_ops_per_op", ratio(shardOps, ops), n)
	for _, op := range []string{"put", "get", "delete"} {
		cnt := g(fmt.Sprintf(`ecgate_shard_seconds_count{op=%q}`, op))
		sum := g(fmt.Sprintf(`ecgate_shard_seconds_sum{op=%q}`, op))
		m.set("service.shard_"+op+"_mean_ms", ratio(sum*1e3, cnt), int(cnt))
	}
	m.set("service.osd_op_mean_ms", ratio(o("ecstored_op_seconds_sum")*1e3, o("ecstored_op_seconds_count")), int(o("ecstored_op_seconds_count")))

	m.set("service.degraded_reads_frac", ratio(g("ecgate_degraded_reads_total"), float64(r.gets)), r.gets)
	m.set("service.reconstructed_shards_per_get", ratio(g("ecgate_reconstructed_shards_total"), float64(r.gets)), r.gets)
	m.set("service.degraded_writes_frac", ratio(g("ecgate_degraded_writes_total"), float64(r.puts)), r.puts)
	for name, series := range map[string]string{
		"service.breaker_skipped":    "ecgate_breaker_skipped_total",
		"service.breaker_trips":      "ecgate_breaker_trips_total",
		"service.shard_retries":      "ecgate_shard_retries_total",
		"service.hedged_reads":       "ecgate_hedged_reads_total",
		"service.hedge_wins":         "ecgate_hedge_wins_total",
		"service.admission_rejected": "ecgate_admission_rejected_total",
		"service.wal_records":        "ecgate_wal_records_total",
		"service.wal_compactions":    "ecgate_wal_compactions_total",
	} {
		m.set(name, g(series), n)
	}

	m.set("service.put_p95_ms", r.medianOverRounds(func(s roundStats) float64 { return s.putP95 }), len(r.putLat))
	m.set("service.get_p95_ms", r.medianOverRounds(func(s roundStats) float64 { return s.getP95 }), len(r.getLat))
	p99, _ := percentile(r.putLat, 0.99)
	m.set("service.put_p99_ms", p99, len(r.putLat))
	p99, _ = percentile(r.getLat, 0.99)
	m.set("service.get_p99_ms", p99, len(r.getLat))
	if len(r.open) > 0 {
		var miss, nOpen, backlog int
		var lateMs []float64
		var wall, scheduled float64
		for _, p := range r.open {
			for _, s := range p.samples {
				if s.failed || s.ms > sloLimitMs {
					miss++
				}
			}
			nOpen += len(p.samples)
			lateMs = append(lateMs, p.lateMs...)
			backlog = max(backlog, p.backlogMax)
			wall += p.wall.Seconds()
			scheduled += p.scheduled.Seconds()
		}
		m.set("service.slo_miss_frac", ratio(float64(miss), float64(nOpen)), nOpen)
		late, _ := percentile(lateMs, 0.95)
		m.set("ecload.gen_late_p95_ms", late, nOpen)
		m.set("ecload.backlog_max", float64(backlog), nOpen)
		// The schedule's own length over the time it took to complete it:
		// 1 when every op is sent when due and answered at once.
		m.set("ecload.achieved_over_offered", ratio(scheduled, wall), nOpen)
	}
	self := r.selfAfter.sub(r.selfBefore)
	m.set("ecload.client_cpu_ms_per_op", ratio(self.UserMs+self.SysMs, ops), n)
	m.set("ecload.client_allocs_per_op", ratio(float64(r.mallocs), ops), n)
}

// traced fills the per-layer metrics derived from the span tree.
func tracedMetrics(tr *tracer, m metricSet) {
	type split struct{ front, self, fan, slow []float64 }
	by := map[string]*split{"put": {}, "get": {}}
	for _, b := range tr.breakdowns() {
		s := by[b.op]
		if s == nil {
			continue
		}
		s.front = append(s.front, b.front)
		s.self = append(s.self, b.self)
		s.fan = append(s.fan, b.fan)
		if b.slowestOverMedian > 0 {
			s.slow = append(s.slow, b.slowestOverMedian)
		}
	}
	for op, s := range by {
		m.set("service.http_front_ms."+op, median(s.front), len(s.front))
		m.set("service.handler_self_ms."+op, median(s.self), len(s.self))
		m.set("service.shard_fanout_ms."+op, median(s.fan), len(s.fan))
		m.set("service.shard_slowest_over_median."+op, median(s.slow), len(s.slow))
	}
}
