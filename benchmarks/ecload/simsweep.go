package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"ecarray/internal/bench"
	"ecarray/internal/workload"
)

// simGrid is the sweep: 3 schemes × {read, write} × {4, 16 KiB} × {healthy,
// one OSD failed}, random access, 4 KiB stripe unit, on the default 24-OSD
// cluster. 24 cells.
func simGrid() bench.Grid {
	return bench.Grid{
		Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)"},
		Patterns:    []string{workload.Random.String()},
		Ops:         []string{workload.Read.String(), workload.Write.String()},
		BlockSizes:  []int64{4 << 10, 16 << 10},
		StripeUnits: []int64{4 << 10},
		Kernels:     []string{"auto"},
		Faults:      []string{"none", "degraded"},
	}
}

// warmGrid is the two-cell subset that set-up runs to grow the heap before
// anything is timed, and that the determinism check runs a second time
// with the codec forced serial.
func warmGrid() bench.Grid {
	g := simGrid()
	g.Schemes = []string{"RS(6,3)"}
	g.BlockSizes = []int64{4 << 10}
	g.Faults = []string{"none"}
	return g
}

// simVirtualPerSecond is how much simulated time each cell covers per
// second of --seconds: the 24 cells then take about that long on this
// two-core box (about 1.6 M events per host second). The event count
// depends only on the seed and this figure, never on the host.
const simVirtualPerSecond = 21 * time.Millisecond

var simSchemeKey = map[string]string{"3-Rep": "rep3", "RS(6,3)": "rs63", "RS(10,4)": "rs104"}

type simRun struct {
	setupS            []float64
	report            *bench.BenchReport
	wall              float64 // host seconds around RunSweep
	cpuMs             float64 // this process, user + system, over RunSweep
	hwmMB             float64
	digest            string
	attempted, failed int64
}

func simOptions(seed int64, duration time.Duration) bench.Options {
	o := bench.Smoke()
	o.Duration, o.Ramp = duration, duration/4
	o.Seed = seed
	return o
}

func sweep(o bench.Options, g bench.Grid, progress func(done, total int, id string)) (*bench.BenchReport, error) {
	s, err := bench.NewSuite(o)
	if err != nil {
		return nil, err
	}
	return s.RunSweep("ecload", g, 0, 1, progress)
}

// runSim runs the sweep once. Set-up (a new suite plus the warm-up cells)
// is repeated setups times. With tr set, each cell is recorded as a span.
func (h *harness) runSim(ctx context.Context, seed int64, seconds float64, setups int, tr *tracer) (*simRun, error) {
	r := &simRun{}
	cell := time.Duration(seconds * float64(simVirtualPerSecond))
	warmOpt := simOptions(seed, cell)
	var warm *bench.BenchReport
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if warm, err = sweep(warmOpt, warmGrid(), nil); err != nil {
			return r, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	// Simulated results must not depend on how the codec is scheduled:
	// the same cells with the codec serial must digest identically.
	serialOpt := warmOpt
	serialOpt.CodecConcurrency = 1
	serial, err := sweep(serialOpt, warmGrid(), nil)
	if err != nil {
		return r, err
	}
	serial.Config.CodecConcurrency = warm.Config.CodecConcurrency // the knob itself is in the digest
	r.attempted++
	if serial.DeterministicDigest() != warm.DeterministicDigest() {
		h.warn("sim-sweep: digest %s with the codec serial, %s with the default", serial.DeterministicDigest(), warm.DeterministicDigest())
		r.failed++
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}

	opt := simOptions(seed, cell)
	before, err := readProc(os.Getpid())
	if err != nil {
		return r, err
	}
	var progress func(done, total int, id string)
	if tr != nil {
		last := tr.now()
		progress = func(done, total int, id string) {
			now := tr.now()
			tr.record(id, spanCell, last, now)
			last = now
		}
	}
	t0 := time.Now()
	r.report, err = sweep(opt, simGrid(), progress)
	r.wall = time.Since(t0).Seconds()
	if err != nil {
		// RunSweep stops at the first cell that errors.
		h.warn("sim-sweep: %v", err)
		r.attempted++
		r.failed++
		return r, nil
	}
	after, err := readProc(os.Getpid())
	if err != nil {
		return r, err
	}
	d := after.sub(before)
	r.cpuMs, r.hwmMB = d.UserMs+d.SysMs, after.HWMMB
	r.digest = r.report.DeterministicDigest()
	for _, c := range r.report.Cells {
		r.attempted += c.Ops
		r.failed += c.Errors
	}
	return r, nil
}

// cellSums adds up the cells of one op ("read" or "write"), optionally of
// one scheme.
type cellSums struct {
	ops, bytes int64
	events     uint64
	wallMs     []float64
	devWritten float64
}

func (r *simRun) sum(op, scheme string) cellSums {
	var s cellSums
	for _, c := range r.report.Cells {
		if c.Op != op || (scheme != "" && c.Scheme != scheme) {
			continue
		}
		s.ops += c.Ops
		s.bytes += c.Bytes
		s.events += c.EngineEvents
		s.wallMs = append(s.wallMs, c.WallMS)
		s.devWritten += c.DevWritePerReq * float64(c.Bytes)
	}
	return s
}

func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd fills what a user of the simulator sees, in host time: "put"
// is the write cells and "get" the read cells; MB and ops are simulated,
// seconds are the host's; a latency sample is one cell's host wall time.
func (r *simRun) endToEnd(m metricSet) {
	m.set("setup_s", median(r.setupS), len(r.setupS))
	w, rd := r.sum("write", ""), r.sum("read", "")
	m.set("put_mbps", ratio(float64(w.bytes)/1e6, total(w.wallMs)/1e3), len(w.wallMs))
	m.set("get_mbps", ratio(float64(rd.bytes)/1e6, total(rd.wallMs)/1e3), len(rd.wallMs))
	m.set("ops_per_s", ratio(float64(w.ops+rd.ops), r.wall), len(r.report.Cells))
	m.set("put_p50_ms", median(w.wallMs), len(w.wallMs))
	m.set("get_p50_ms", median(rd.wallMs), len(rd.wallMs))
	m.set("cpu_ms_per_op", ratio(r.cpuMs, float64(w.ops+rd.ops)), int(w.ops+rd.ops))
	m.set("rss_peak_mb", r.hwmMB, 1)
	// The simulator's counterpart of stored bytes: bytes the simulated
	// devices wrote per byte the simulated clients wrote.
	m.set("stored_bytes_per_user_byte", ratio(w.devWritten, float64(w.bytes)), len(w.wallMs))
}

// layers fills the simulator's per-layer metrics and prints the model's
// only validation: each paperref check's measured/paper pair.
func (r *simRun) layers(m metricSet, out func(string, ...any)) {
	for scheme, key := range simSchemeKey {
		for _, op := range []string{"read", "write"} {
			s := r.sum(op, scheme)
			m.set(fmt.Sprintf("core.wall_ms.%s_%s", key, op), total(s.wallMs), len(s.wallMs))
			m.set(fmt.Sprintf("core.events.%s_%s", key, op), float64(s.events), len(s.wallMs))
		}
	}
	e := r.report.Engine
	m.set("sim.events_total", float64(e.Events), len(r.report.Cells))
	m.set("sim.virtual_s", e.VirtualSeconds, len(r.report.Cells))
	m.set("sim.wall_s", r.wall, 1)
	m.set("sim.events_per_s", ratio(float64(e.Events), e.WallSeconds), len(r.report.Cells))

	out("sim-sweep: the model is validated only against internal/paperref's bands; measured / paper per check:")
	passed, checks := 0, 0
	show := func(where, metric, desc string, measured, paper, lo, hi float64, pass bool) {
		checks++
		verdict := "outside"
		if pass {
			passed++
			verdict = "inside"
		}
		out("  %-44s %-28s measured %.4g / paper %.4g  (%s band %.4g..%.4g) %s",
			where, metric, measured, paper, verdict, lo, hi, strings.TrimSpace(desc))
	}
	for _, c := range r.report.Cells {
		for _, k := range c.Checks {
			show(c.ID, k.Metric, k.Desc, k.Measured, k.Paper, k.Lo, k.Hi, k.Pass)
		}
	}
	for _, k := range r.report.Checks {
		show(strings.Join(k.Cells, " vs "), k.Metric, k.Desc, k.Measured, k.Paper, k.Lo, k.Hi, k.Pass)
	}
	m.set("paperref.checks_passed", float64(passed), checks)
	m.set("paperref.checks_total", float64(checks), checks)
}
