package bench

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/gf"
	"ecarray/internal/paperref"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
	"ecarray/internal/trace"
	"ecarray/internal/workload"
)

// The sweep subsystem runs full cross-product grids — the paper-scale
// campaign behind the headline figures (52-SSD array, three
// fault-tolerance schemes, the 1 KB..128 KB block sweep, stripe-unit and
// fault-state axes) — and serializes every run as a versioned
// machine-readable BenchReport (BENCH_*.json).
//
// Every cell is independently seeded from its identity (CellKey.seed folds
// the cell ID into the base seed), so cells are deterministic in isolation:
// RunSweep runs them side by side on every core, and
// a grid can be split across CI matrix legs or machines with RunSweep's
// shard arguments and the shard reports merged back with MergeReports into
// a report byte-identical (modulo host/timing fields) to an unsharded run.

// Grid is the cross-product cell space of one sweep. Axes hold the
// string forms used in cell IDs and JSON; presets fill them, validate
// checks them. Replicated schemes ignore the stripe unit, so they run
// only the first StripeUnits entry instead of multiplying the grid, and
// the bare-ssd baseline runs once per (pattern, op, block size).
type Grid struct {
	Schemes     []string `json:"schemes"`      // "3-Rep", "RS(6,3)", "RS(10,4)", "bare-ssd"
	Patterns    []string `json:"patterns"`     // "seq", "rand"
	Ops         []string `json:"ops"`          // "read", "write"
	BlockSizes  []int64  `json:"block_sizes"`  // bytes
	StripeUnits []int64  `json:"stripe_units"` // bytes (EC chunk size)
	Kernels     []string `json:"kernels"`      // only "auto": kept because it is in every cell ID
	Faults      []string `json:"faults"`       // cluster state: "none", "degraded", "recovering"
	// Variants names config mutations (variants.go); empty means "base".
	Variants []string `json:"variants,omitempty"`
}

// FaultAxis lists the valid fault-state axis values: a healthy cluster, a
// cluster serving with one OSD failed (degraded reads reconstruct, §IV-E),
// and a degraded cluster with background recovery running against the
// foreground load.
func FaultAxis() []string { return []string{"none", "degraded", "recovering"} }

// CellKey identifies one sweep cell.
type CellKey struct {
	Scheme     string
	Pattern    string
	Op         string
	BlockSize  int64
	StripeUnit int64
	Kernel     string
	Fault      string // "" means "none"
	Variant    string // "" means "base"
}

// fault normalizes the empty value to "none" (pre-fault-axis cell keys).
func (k CellKey) fault() string {
	if k.Fault == "" {
		return "none"
	}
	return k.Fault
}

// variant normalizes "base" to the empty value, which keys, IDs and
// reports use for the unmutated config.
func (k CellKey) variant() string {
	if k.Variant == "base" {
		return ""
	}
	return k.Variant
}

// ID renders the canonical cell identifier used in reports and caches. A
// variant cell appends its variant, so a base cell keeps its pre-variant ID.
func (k CellKey) ID() string {
	id := fmt.Sprintf("%s/%s/%s/bs%d/su%d/%s/%s",
		k.Scheme, k.Pattern, k.Op, k.BlockSize, k.StripeUnit, k.Kernel, k.fault())
	if v := k.variant(); v != "" {
		id += "/" + v
	}
	return id
}

// seed folds the cell's ID into the suite seed with FNV-1a, so every cell
// draws an independent deterministic stream regardless of which shard
// runs it or in what order. The variant is left out of the ID: a variant
// cell runs on its base cell's cluster and I/O stream, and differs from
// it only by the variant's mutation.
func (k CellKey) seed(suite int64) int64 {
	k.Variant = ""
	id := k.ID()
	sum := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		sum ^= uint64(id[i])
		sum *= 1099511628211
	}
	return suite ^ int64(sum&0x7fffffffffffffff)
}

// Cells enumerates the grid in canonical nested order (schemes, patterns,
// ops, block sizes, stripe units, kernels, faults, variants). The
// enumeration index is what shards slice over, so it must stay stable for
// a given grid. An empty Faults axis enumerates as a single healthy
// ("none") state and an empty Variants axis as the base config, keeping
// grids without those axes valid and sharded as before. A bare-ssd cell
// has no cluster to fail or mutate: it runs at the first stripe unit,
// healthy, under the base config.
func (g Grid) Cells() []CellKey {
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{"none"}
	}
	variants := g.Variants
	if len(variants) == 0 {
		variants = []string{""}
	}
	var out []CellKey
	for _, sc := range g.Schemes {
		ec := sc != "3-Rep" && schemeByName(sc) != nil && schemeByName(sc).Profile.IsEC()
		faults, variants := faults, variants
		if sc == bareSSD {
			faults, variants = []string{"none"}, []string{""}
		}
		for _, pat := range g.Patterns {
			for _, op := range g.Ops {
				for _, bs := range g.BlockSizes {
					for si, su := range g.StripeUnits {
						if si > 0 && !ec {
							continue // stripe unit is an EC-only axis
						}
						for _, kern := range g.Kernels {
							for _, fault := range faults {
								for _, v := range variants {
									out = append(out, CellKey{
										Scheme: sc, Pattern: pat, Op: op,
										BlockSize: bs, StripeUnit: su, Kernel: kern,
										Fault: fault, Variant: v,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

func (g Grid) equal(other Grid) bool { return reflect.DeepEqual(g, other) }

func (g Grid) validate() error {
	if len(g.Schemes) == 0 || len(g.Patterns) == 0 || len(g.Ops) == 0 ||
		len(g.BlockSizes) == 0 || len(g.StripeUnits) == 0 || len(g.Kernels) == 0 {
		return fmt.Errorf("bench: sweep grid has an empty axis: %+v", g)
	}
	for _, sc := range g.Schemes {
		if sc != bareSSD && schemeByName(sc) == nil {
			return fmt.Errorf("bench: unknown scheme %q in grid", sc)
		}
	}
	for _, pat := range g.Patterns {
		if pat != workload.Sequential.String() && pat != workload.Random.String() {
			return fmt.Errorf("bench: unknown pattern %q in grid", pat)
		}
	}
	for _, op := range g.Ops {
		if op != workload.Read.String() && op != workload.Write.String() {
			return fmt.Errorf("bench: unknown op %q in grid", op)
		}
	}
	for _, bs := range g.BlockSizes {
		if bs <= 0 {
			return fmt.Errorf("bench: non-positive block size %d in grid", bs)
		}
	}
	for _, su := range g.StripeUnits {
		if su <= 0 {
			return fmt.Errorf("bench: non-positive stripe unit %d in grid", su)
		}
	}
	for _, kern := range g.Kernels {
		if kern != "auto" {
			// The axis stays only because "auto" is folded into every cell
			// ID, and so into every cell's seed.
			return fmt.Errorf("bench: codec kernel %q in grid: only \"auto\" is valid (the CPU picks the kernel; ROADMAP item 4 removes the axis)", kern)
		}
	}
	for _, fault := range g.Faults {
		ok := false
		for _, v := range FaultAxis() {
			if fault == v {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("bench: unknown fault state %q in grid (want one of %v)",
				fault, FaultAxis())
		}
	}
	for _, v := range g.Variants {
		if _, err := variantMutation(v); err != nil {
			return err
		}
	}
	// A repeated axis value, or "base" next to "", would run and report
	// one cell twice.
	seen := map[string]bool{}
	for _, k := range g.Cells() {
		if seen[k.ID()] {
			return fmt.Errorf("bench: grid enumerates cell %s twice", k.ID())
		}
		seen[k.ID()] = true
	}
	return nil
}

// bareSSD is the scheme of Fig 18's baseline: the cell's pattern straight
// against one simulated SSD, no cluster software (runBareSSD).
const bareSSD = "bare-ssd"

// schemeByName maps a scheme display name back to its profile; nil for
// bare-ssd, which has none.
func schemeByName(name string) *Scheme {
	for _, sc := range Schemes() {
		if sc.Name == name {
			sc := sc
			return &sc
		}
	}
	return nil
}

// SweepPreset resolves a -scale preset name into run options and a grid.
// The options serve every ecbench mode; the grid only the sweep:
//
//   - "smoke": the CI gate — 2 schemes × random × read/write × {4,16} KB on
//     the small testbed, healthy and degraded (one OSD failed) cluster
//     states, short windows; finishes in tens of seconds.
//   - "quick": 3 schemes and the bare SSD × both patterns × read/write ×
//     the Quick block sweep on the small testbed, healthy cluster only:
//     64 cells.
//   - "paper": the full campaign — 52-OSD array, 3 schemes × both
//     patterns × read/write × the paper's 1 KB..128 KB sweep, stripe units
//     {4,16,64} KB, and all three fault states (healthy, degraded,
//     recovering — the §IV-E axis), plus the bare SSD's 32 healthy cells:
//     704 cells. Hours of wall time serially; shard it (ecbench -shard
//     i/n).
func SweepPreset(name string) (Options, Grid, error) {
	switch name {
	case "smoke":
		return Smoke(), Grid{
			Schemes:     []string{"3-Rep", "RS(6,3)"},
			Patterns:    []string{workload.Random.String()},
			Ops:         []string{workload.Read.String(), workload.Write.String()},
			BlockSizes:  []int64{4 << 10, 16 << 10},
			StripeUnits: []int64{4 << 10},
			Kernels:     []string{"auto"},
			Faults:      []string{"none", "degraded"},
		}, nil
	case "quick":
		return Quick(), Grid{
			Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)", bareSSD},
			Patterns:    []string{workload.Sequential.String(), workload.Random.String()},
			Ops:         []string{workload.Read.String(), workload.Write.String()},
			BlockSizes:  Quick().BlockSizes,
			StripeUnits: []int64{4 << 10},
			Kernels:     []string{"auto"},
			Faults:      []string{"none"},
		}, nil
	case "paper":
		return Paper(), Grid{
			Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)", bareSSD},
			Patterns:    []string{workload.Sequential.String(), workload.Random.String()},
			Ops:         []string{workload.Read.String(), workload.Write.String()},
			BlockSizes:  PaperBlockSizes(),
			StripeUnits: []int64{4 << 10, 16 << 10, 64 << 10},
			Kernels:     []string{"auto"},
			Faults:      FaultAxis(),
		}, nil
	}
	return Options{}, Grid{}, fmt.Errorf("bench: unknown sweep preset %q", name)
}

// SweepWorkers is how many cells of a sweep run side by side: one per
// core the Go scheduler may use, and never more than there are cells. A
// worker beyond GOMAXPROCS would only make every in-flight cell slower.
func SweepWorkers(cells int) int {
	return min(runtime.GOMAXPROCS(0), cells)
}

// RunSweep executes this shard's slice of the grid (cells whose
// enumeration index ≡ shardIdx mod shardCount; pass 0, 1 for the whole
// grid) and returns the machine-readable report. Cells come from the
// suite's one cell path (see cells), so a cell some figure already ran is
// not run again. progress, when non-nil, is called after each cell run,
// with the done count and the number of cells to run.
func (s *Suite) RunSweep(preset string, g Grid, shardIdx, shardCount int,
	progress func(done, total int, id string)) (*BenchReport, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if shardCount <= 0 {
		shardCount = 1
	}
	if shardIdx < 0 || shardIdx >= shardCount {
		return nil, fmt.Errorf("bench: shard %d/%d out of range", shardIdx, shardCount)
	}
	all := g.Cells()
	var mine []CellKey
	for i, k := range all {
		if i%shardCount == shardIdx {
			mine = append(mine, k)
		}
	}
	r := &BenchReport{
		SchemaVersion: ReportSchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          hostInfo(),
		Codec: CodecInfo{
			ActiveKernel: gf.ActiveKernel().String(),
			Accelerated:  gf.Accelerated(),
			GFNI:         gf.HasGFNI(),
		},
		Config:     s.reportConfig(preset),
		Grid:       g,
		ShardIndex: shardIdx,
		ShardCount: shardCount,
	}

	outcomes, err := s.cells(mine, progress)
	if err != nil {
		return nil, err
	}
	var eng engineStats
	for _, o := range outcomes {
		r.Cells = append(r.Cells, o.report)
		eng.add(o.eng)
	}
	r.Engine = EngineInfo{
		Events:         eng.events,
		VirtualSeconds: eng.virtual.Seconds(),
		WallSeconds:    eng.wall.Seconds(),
	}
	if r.Engine.WallSeconds > 0 {
		r.Engine.EventsPerSec = float64(r.Engine.Events) / r.Engine.WallSeconds
	}
	r.Calibrations = s.calibrationInfo()
	r.sortCells()
	r.Checks = computeReportChecks(r)
	return r, nil
}

// cellOutcome is what one cell hands back to its caller: cells run
// concurrently, so they share nothing and the caller does the summing.
// A cell that was never started (an earlier one failed) stays zero.
type cellOutcome struct {
	report CellReport
	eng    engineStats
	err    error
}

// cells is the suite's one cell path: RunSweep and every figure call it.
// It returns the outcome of each key, in order. Cells the suite has run
// before come from its cache; the rest run on runCells' pool, are cached by
// ID, and count toward the suite's engine totals. progress, when non-nil,
// is called on the calling goroutine after each cell that ran, in
// completion order, with the done count and the number of cells to run. If
// cells fail, no further cells are started and the error of the failing
// cell that comes first in keys is returned.
func (s *Suite) cells(keys []CellKey, progress func(done, total int, id string)) ([]cellOutcome, error) {
	var todo []CellKey
	for _, k := range keys {
		if _, ok := s.cache[k.ID()]; !ok {
			todo = append(todo, k)
		}
	}
	done := 0
	ran := s.runCells(todo, func(k CellKey) {
		done++
		if progress != nil {
			progress(done, len(todo), k.ID())
		}
	})
	// Workers start cells in order, so every cell before the first failure
	// ran and every cell that never started comes after it.
	for i, o := range ran {
		if o.err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", todo[i].ID(), o.err)
		}
		s.cache[todo[i].ID()] = o
		s.eng.add(o.eng)
	}
	out := make([]cellOutcome, len(keys))
	for i, k := range keys {
		out[i] = s.cache[k.ID()]
	}
	return out, nil
}

// runCells runs cells on SweepWorkers goroutines and returns their
// outcomes, in the order of cells. completed is called on the calling
// goroutine after each cell that succeeded. After a failure no further
// cell is started.
func (s *Suite) runCells(cells []CellKey, completed func(CellKey)) []cellOutcome {
	if s.Opt.CalibrateEncode {
		// Measure before any cell runs: a measurement must not share the
		// cores with simulation, and afterwards cells only read the cache.
		for _, k := range cells {
			if sc := schemeByName(k.Scheme); sc != nil && sc.Profile.IsEC() {
				s.encodeMBps(sc.Profile.K, sc.Profile.M)
			}
		}
	}

	outcomes := make([]cellOutcome, len(cells))
	var (
		next   atomic.Int64 // index of the next cell to start
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	finished := make(chan int)
	for w := SweepWorkers(len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				o := &outcomes[i]
				o.report, o.eng, o.err = s.runSweepCell(cells[i])
				if o.err != nil {
					failed.Store(true)
				}
				finished <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	for i := range finished {
		if outcomes[i].err == nil {
			completed(cells[i])
		}
	}
	return outcomes
}

// reportConfig snapshots the deterministic run shape.
func (s *Suite) reportConfig(preset string) ReportConfig {
	base := core.DefaultConfig()
	nodes, perNode := base.StorageNodes, base.OSDsPerNode
	if s.Opt.StorageNodes > 0 {
		nodes = s.Opt.StorageNodes
	}
	if s.Opt.OSDsPerNode > 0 {
		perNode = s.Opt.OSDsPerNode
	}
	return ReportConfig{
		Preset:           preset,
		DurationMS:       s.Opt.Duration.Milliseconds(),
		RampMS:           s.Opt.Ramp.Milliseconds(),
		QueueDepth:       s.Opt.QueueDepth,
		ImageBytes:       s.Opt.ImageSize,
		PGs:              s.Opt.PGs,
		Seed:             s.Opt.Seed,
		StorageNodes:     nodes,
		OSDsPerNode:      perNode,
		TotalOSDs:        nodes * perNode,
		CalibrateEncode:  s.Opt.CalibrateEncode,
		CodecConcurrency: s.Opt.CodecConcurrency,
	}
}

// runSweepCell runs one grid cell, seeded from its own ID, and measures
// it into a CellReport. It runs concurrently with other cells and so only
// reads the suite.
func (s *Suite) runSweepCell(k CellKey) (CellReport, engineStats, error) {
	seed := k.seed(s.Opt.Seed)
	run := s.runClusterCell
	if k.Scheme == bareSSD {
		run = s.runBareSSD
	}
	cr, eng, err := run(k, seed, time.Now())
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	cr.ID, cr.Scheme, cr.Pattern, cr.Op = k.ID(), k.Scheme, k.Pattern, k.Op
	cr.BlockSize, cr.StripeUnit, cr.Kernel, cr.Fault = k.BlockSize, k.StripeUnit, k.Kernel, k.fault()
	cr.Variant = k.variant()
	cr.Seed = seed
	cr.EngineEvents, cr.SimSeconds = eng.events, eng.virtual.Seconds()
	cr.Checks = cellChecks(k, cr)
	cr.WallMS = float64(eng.wall.Microseconds()) / 1e3
	if secs := eng.wall.Seconds(); secs > 0 {
		cr.EventsPerSec = float64(cr.EngineEvents) / secs
	}
	return cr, eng, nil
}

// ops returns the cell's op and access pattern.
func (k CellKey) ops() (workload.Op, workload.Pattern) {
	op, pattern := workload.Read, workload.Sequential
	if k.Op == workload.Write.String() {
		op = workload.Write
	}
	if k.Pattern == workload.Random.String() {
		pattern = workload.Random
	}
	return op, pattern
}

// runClusterCell runs a cell of a cluster scheme on a fresh cluster: the
// stripe unit and the variant are applied to the run, and the cell's seed
// drives both the cluster and the load generator. started is taken before
// the cluster is built, so setup counts against the simulator.
func (s *Suite) runClusterCell(k CellKey, seed int64, started time.Time) (CellReport, engineStats, error) {
	scheme := schemeByName(k.Scheme) // validated with the grid
	mutate, err := variantMutation(k.variant())
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	op, pattern := k.ops()
	run := cellRun{cfg: s.baseConfig(seed), job: workload.Job{
		Name: k.ID(), Op: op, Pattern: pattern, BlockSize: k.BlockSize,
		QueueDepth: s.Opt.QueueDepth, Duration: s.Opt.Duration, Seed: seed,
	}}
	run.cfg.StripeUnit = k.StripeUnit
	s.applyCodecConfig(&run.cfg, scheme.Profile)
	if op == workload.Read {
		// The paper pre-writes images before read measurements (§III).
		run.prefill, run.job.Ramp = true, s.Opt.Ramp
	}
	mutate(&run)
	c, img, err := s.clusterWith(run.cfg, scheme.Profile)
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	if run.prefill {
		img.Prefill()
	}
	job := run.job
	var rec *trace.Recorder
	name, corpus := corpusName(k)
	if corpus && s.Opt.TraceDir != "" {
		rec = corpusRecorder(c, k.Scheme, job, s.Opt.ImageSize)
	}
	from := c.Engine().Now() + sim.Time(job.Ramp)
	res, err := s.runCellJob(c, img, job, k.fault())
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	if rec != nil {
		// The cluster's counters cover [from, from+Duration): the trace
		// keeps the same window, so the two sum to the same bytes.
		stem := filepath.Join(s.Opt.TraceDir, name)
		if err := writeCorpus(stem, rec, run.cfg, op == workload.Write, from, from+sim.Time(job.Duration)); err != nil {
			return CellReport{}, engineStats{}, err
		}
	}
	eng := finishRun(c.Engine(), started)

	cr := newCellReport(res)
	gray := c.GrayMetrics()
	cr.GrayShardTimeouts, cr.GrayShardFaults, cr.GrayShardRetries = gray.ShardTimeouts, gray.ShardFaults, gray.ShardRetries
	cr.GrayHedgesIssued, cr.GrayHedgesWon = gray.HedgesIssued, gray.HedgesWon
	cr.GrayEjects, cr.GrayReadmits = gray.Ejects, gray.Readmits
	return cr, eng, nil
}

// runBareSSD runs a bare-ssd cell: the cell's pattern straight against one
// 4 GiB simulated SSD from 32 workers (device-level queue depth bounded by
// NCQ, as with FIO on a raw device), no cluster software.
func (s *Suite) runBareSSD(k CellKey, seed int64, started time.Time) (CellReport, engineStats, error) {
	if k.fault() != "none" || k.variant() != "" {
		return CellReport{}, engineStats{}, fmt.Errorf("bench: %s runs healthy base cells only", bareSSD)
	}
	op, pattern := k.ops()
	bs := k.BlockSize
	e := sim.NewEngine()
	capacity := int64(4 << 30)
	dev, err := ssd.New(e, "bare", ssd.DefaultConfig(capacity))
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	blocks := capacity / 2 / bs
	rng := sim.NewRand(seed)
	end := sim.Time(s.Opt.Duration)
	var ops, bytes int64
	var cursor int64 // shared sequential cursor, as one FIO job
	for w := 0; w < 32; w++ {
		e.GoNamed("ssd", "", w, func(p *sim.Proc) {
			for p.Now() < end {
				var off int64
				if pattern == workload.Sequential {
					off = (cursor % blocks) * bs
					cursor++
				} else {
					off = rng.Int63n(blocks) * bs
				}
				if op == workload.Write {
					dev.Write(p, off, nil, bs)
				} else {
					dev.Read(p, off, bs)
				}
				ops++
				bytes += bs
			}
		})
	}
	e.RunUntil(end)
	secs := s.Opt.Duration.Seconds()
	return CellReport{Ops: ops, Bytes: bytes, MBps: float64(bytes) / secs / (1 << 20), IOPS: float64(ops) / secs},
		finishRun(e, started), nil
}

// newCellReport turns one run's result into the measured fields of a
// CellReport. It is the one place the per-request ratios the figures plot
// are computed: context switches per MiB (Figs 11-12), device reads and
// writes per requested byte (Figs 13-15), private-network bytes per
// requested byte (Figs 16-17), and flash writes per requested byte (§I).
func newCellReport(res workload.Result) CellReport {
	cr := CellReport{
		Ops:           res.Ops,
		Bytes:         res.Bytes,
		MBps:          res.MBps,
		IOPS:          res.IOPS,
		MeanLatencyUS: float64(res.MeanLatency) / 1e3,
		P50LatencyUS:  float64(res.P50Latency) / 1e3,
		P99LatencyUS:  float64(res.P99Latency) / 1e3,
		MaxLatencyUS:  float64(res.MaxLatency) / 1e3,
		UserCPU:       res.Metrics.UserCPU,
		KernelCPU:     res.Metrics.KernelCPU,
		Errors:        res.Errors,
		Samples:       res.Samples,
	}
	if res.Bytes > 0 {
		b := float64(res.Bytes)
		cr.CtxPerMB = float64(res.Metrics.ContextSwitches) / (b / (1 << 20))
		cr.DevReadPerReq = float64(res.Metrics.DeviceReadBytes) / b
		cr.DevWritePerReq = float64(res.Metrics.DeviceWriteBytes) / b
		cr.NetPerReq = float64(res.Metrics.PrivateBytes) / b
		cr.FlashWritePerReq = float64(res.Metrics.FlashWriteBytes) / b
	}
	return cr
}

// runCellJob executes one cell's job under its fault state. The healthy
// state is the plain closed-loop runner; "degraded" fails OSDs 0 and 7 at
// t=0 — the same two-failure shape as the §IV-E scenario tables — so the
// whole window serves with holes in the array; "recovering" additionally
// runs background repair on the pool against the foreground load. Fault
// events ride the Scenario machinery, so the run stays fully deterministic
// under the cell seed.
func (s *Suite) runCellJob(c *core.Cluster, img *core.Image, job workload.Job, fault string) (workload.Result, error) {
	if fault == "none" {
		return workload.Run(c, img, job)
	}
	sc := workload.NewScenario(c).AddJob(img, job).At(0, workload.FailOSD(0))
	if len(c.OSDs()) > 7 {
		sc = sc.At(0, workload.FailOSD(7))
	}
	if fault == "recovering" {
		sc = sc.At(0, workload.StartRecovery("data"))
	}
	sres, err := sc.Run()
	if err != nil {
		return workload.Result{}, err
	}
	if len(sres.Jobs) != 1 {
		return workload.Result{}, fmt.Errorf("bench: fault cell ran %d jobs, want 1", len(sres.Jobs))
	}
	return sres.Jobs[0].Result, nil
}

// cellChecks returns the paper-band verdicts that apply to one cell in
// isolation. Bands match the tier-1 calibration-invariant tests: wide,
// guarding mechanisms and directions rather than exact testbed numbers.
func cellChecks(k CellKey, c CellReport) []paperref.CheckResult {
	if k.fault() != "none" || (k.variant() != "" && k.variant() != "series") {
		// The paper-band numbers describe the healthy cluster under the
		// base config; fault cells are checked cross-cell (healthy vs
		// degraded) at report level, variant cells not at all. A series
		// cell is its base cell, sampled, and so checked as it is.
		return nil
	}
	var out []paperref.CheckResult
	rand, seq := workload.Random.String(), workload.Sequential.String()
	read, write := workload.Read.String(), workload.Write.String()
	if k.Scheme == "RS(6,3)" && k.Pattern == rand && k.Op == read && k.BlockSize == 4<<10 {
		if p, ok := paperref.Lookup("fig15", "rs63_rand_4k"); ok {
			// EC rand-read amplification ≈ stripe/bs chunk pulls (paper 6.9×).
			out = append(out, p.CheckWithin(c.DevReadPerReq, 3, 9))
		}
	}
	if (k.Scheme == "RS(6,3)" || k.Scheme == "RS(10,4)") && k.Pattern == rand && k.Op == write {
		if p, ok := paperref.Lookup("fig9", "user_share"); ok {
			if total := c.UserCPU + c.KernelCPU; total > 0 {
				out = append(out, p.CheckWithin(c.UserCPU/total, 0.55, 0.9))
			}
		}
	}
	if k.Scheme == "3-Rep" && k.Pattern == seq && k.Op == write && k.BlockSize == 1<<10 {
		if p, ok := paperref.Lookup("fig13", "rep_1k_read_amp"); ok {
			// Sub-minimum-I/O writes read-amplify ~9× (4 KB min I/O).
			out = append(out, p.CheckWithin(c.DevReadPerReq, 2, 20))
		}
	}
	return out
}

// computeReportChecks derives the cross-cell paper-band verdicts (scheme
// ratios) from whatever cells the report holds. Shard reports may miss one
// side of a ratio; MergeReports recomputes over the full set.
func computeReportChecks(r *BenchReport) []ReportCheck {
	if len(r.Grid.StripeUnits) == 0 || len(r.Grid.Kernels) == 0 {
		return nil
	}
	su, kern := r.Grid.StripeUnits[0], r.Grid.Kernels[0]
	cellAt := func(scheme, pattern, op string, bs int64, fault string) *CellReport {
		return r.Cell(CellKey{Scheme: scheme, Pattern: pattern, Op: op,
			BlockSize: bs, StripeUnit: su, Kernel: kern, Fault: fault}.ID())
	}
	cell := func(scheme, pattern, op string, bs int64) *CellReport {
		return cellAt(scheme, pattern, op, bs, "none")
	}
	var out []ReportCheck
	add := func(res paperref.CheckResult, cells ...*CellReport) {
		rc := ReportCheck{CheckResult: res}
		for _, c := range cells {
			rc.Cells = append(rc.Cells, c.ID)
		}
		out = append(out, rc)
	}
	rand, seq := workload.Random.String(), workload.Sequential.String()
	read, write := workload.Read.String(), workload.Write.String()
	const bs = 4 << 10

	rep, rs63 := cell("3-Rep", rand, write, bs), cell("RS(6,3)", rand, write, bs)
	if rep != nil && rs63 != nil && rs63.MBps > 0 {
		if p, ok := paperref.Lookup("fig7", "rs63_worse"); ok {
			add(p.CheckWithin(rep.MBps/rs63.MBps, 1.5, 40), rep, rs63)
		}
		if p, ok := paperref.Lookup("fig11", "rs63_ctx_ratio"); ok && rep.CtxPerMB > 0 {
			add(p.CheckWithin(rs63.CtxPerMB/rep.CtxPerMB, 1, 40), rep, rs63)
		}
	}
	if rs104 := cell("RS(10,4)", rand, write, bs); rep != nil && rs104 != nil && rs104.MBps > 0 {
		if p, ok := paperref.Lookup("fig7", "rs104_worse"); ok {
			add(p.CheckWithin(rep.MBps/rs104.MBps, 1.5, 40), rep, rs104)
		}
	}
	repR, rs63R := cell("3-Rep", rand, read, bs), cell("RS(6,3)", rand, read, bs)
	if repR != nil && rs63R != nil && repR.MBps > 0 {
		if p, ok := paperref.Lookup("fig8", "rep_vs_rs63_diff"); ok {
			diff := rs63R.MBps/repR.MBps - 1
			if diff < 0 {
				diff = -diff
			}
			add(p.CheckWithin(diff, 0, 0.34), repR, rs63R)
		}
	}
	repS, rs63S := cell("3-Rep", seq, write, bs), cell("RS(6,3)", seq, write, bs)
	if repS != nil && rs63S != nil && rs63S.MBps > 0 {
		if p, ok := paperref.Lookup("fig5", "rep_over_rs63_mid"); ok {
			add(p.CheckWithin(repS.MBps/rs63S.MBps, 2, 40), repS, rs63S)
		}
	}
	// Fault-axis cross-cell check (§IV-E): failing an OSD must not speed
	// reads up — the degraded (and recovering) EC read cells stay at or
	// below the healthy cell's throughput, within noise.
	for _, fault := range []string{"degraded", "recovering"} {
		healthy, faulty := cell("RS(6,3)", rand, read, bs), cellAt("RS(6,3)", rand, read, bs, fault)
		if healthy != nil && faulty != nil && faulty.MBps > 0 {
			if p, ok := paperref.Lookup("text", "degraded_read_penalty"); ok {
				add(p.CheckWithin(healthy.MBps/faulty.MBps, 0.9, 50), healthy, faulty)
			}
		}
	}
	// Fig 18 (§VII-A): a scheme's random/sequential throughput ratio over
	// another's, on 4 KiB requests; ×/÷2 bands.
	for _, f := range []struct{ metric, scheme, over, op string }{
		{"rep_over_ssd", "3-Rep", bareSSD, read},
		{"rs63_over_rep", "RS(6,3)", "3-Rep", read},
		{"rs104_over_rep", "RS(10,4)", "3-Rep", read},
		{"rs63_write_over_ssd", "RS(6,3)", bareSSD, write},
		{"rs104_write_over_ssd", "RS(10,4)", bareSSD, write},
	} {
		rnd, sq := cell(f.scheme, rand, f.op, bs), cell(f.scheme, seq, f.op, bs)
		overR, overS := cell(f.over, rand, f.op, bs), cell(f.over, seq, f.op, bs)
		if rnd == nil || sq == nil || overR == nil || overS == nil || sq.MBps == 0 || overR.MBps == 0 {
			continue
		}
		if p, ok := paperref.Lookup("fig18", f.metric); ok {
			add(p.CheckWithin(rnd.MBps/sq.MBps/(overR.MBps/overS.MBps), p.Value/2, p.Value*2), rnd, sq, overR, overS)
		}
	}
	return out
}
