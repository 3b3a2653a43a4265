package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/gf"
	"ecarray/internal/paperref"
	"ecarray/internal/workload"
)

// The sweep subsystem runs full cross-product grids — the paper-scale
// campaign behind the headline figures (52-SSD array, three
// fault-tolerance schemes, the 1 KB..128 KB block sweep, stripe-unit and
// codec-kernel axes) — and serializes every run as a versioned
// machine-readable BenchReport (BENCH_*.json).
//
// Every cell is independently seeded from its identity (cellSeed folds the
// cell ID into the base seed), so cells are deterministic in isolation:
// RunSweep runs them side by side on every core, and
// a grid can be split across CI matrix legs or machines with RunSweep's
// shard arguments and the shard reports merged back with MergeReports into
// a report byte-identical (modulo host/timing fields) to an unsharded run.

// Grid is the cross-product cell space of one sweep. Axes hold the
// string forms used in cell IDs and JSON; presets fill them, validate
// checks them. Replicated schemes ignore the stripe unit, so they run
// only the first StripeUnits entry instead of multiplying the grid.
type Grid struct {
	Schemes     []string `json:"schemes"`      // "3-Rep", "RS(6,3)", "RS(10,4)"
	Patterns    []string `json:"patterns"`     // "seq", "rand"
	Ops         []string `json:"ops"`          // "read", "write"
	BlockSizes  []int64  `json:"block_sizes"`  // bytes
	StripeUnits []int64  `json:"stripe_units"` // bytes (EC chunk size)
	Kernels     []string `json:"kernels"`      // GF kernel tiers
	Faults      []string `json:"faults"`       // cluster state: "none", "degraded", "recovering"
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
}

// fault normalizes the empty value to "none" (pre-fault-axis cell keys).
func (k CellKey) fault() string {
	if k.Fault == "" {
		return "none"
	}
	return k.Fault
}

// ID renders the canonical cell identifier used in reports and seeds.
func (k CellKey) ID() string {
	return fmt.Sprintf("%s/%s/%s/bs%d/su%d/%s/%s",
		k.Scheme, k.Pattern, k.Op, k.BlockSize, k.StripeUnit, k.Kernel, k.fault())
}

// Cells enumerates the grid in canonical nested order (schemes, patterns,
// ops, block sizes, stripe units, kernels, faults). The enumeration index
// is what shards slice over, so it must stay stable for a given grid. An
// empty Faults axis enumerates as a single healthy ("none") state, keeping
// pre-fault-axis grids valid.
func (g Grid) Cells() []CellKey {
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{"none"}
	}
	var out []CellKey
	for _, sc := range g.Schemes {
		ec := sc != "3-Rep" && schemeByName(sc) != nil && schemeByName(sc).Profile.IsEC()
		for _, pat := range g.Patterns {
			for _, op := range g.Ops {
				for _, bs := range g.BlockSizes {
					for si, su := range g.StripeUnits {
						if si > 0 && !ec {
							continue // stripe unit is an EC-only axis
						}
						for _, kern := range g.Kernels {
							for _, fault := range faults {
								out = append(out, CellKey{
									Scheme: sc, Pattern: pat, Op: op,
									BlockSize: bs, StripeUnit: su, Kernel: kern,
									Fault: fault,
								})
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
		if schemeByName(sc) == nil {
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
		if _, ok := gf.ParseKernel(kern); !ok {
			return fmt.Errorf("bench: unknown codec kernel %q in grid", kern)
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
	return nil
}

// schemeByName maps a scheme display name back to its profile.
func schemeByName(name string) *Scheme {
	for _, sc := range Schemes() {
		if sc.Name == name {
			sc := sc
			return &sc
		}
	}
	return nil
}

// kernelLadder is the paper preset's fixed codec-kernel axis: every tier,
// regardless of the local CPU, so the grid — and therefore the
// shard-index-to-cell mapping — is identical on every machine and shards
// produced on heterogeneous hosts merge. Tiers the CPU lacks dispatch
// through the widest supported fallback: simulated metrics are identical
// either way, and the per-cell wall/events-per-sec fields record what the
// fallback actually cost (CodecInfo says whether gfni/avx2 were real).
func kernelLadder() []string {
	return []string{"scalar", "avx2", "fused", "gfni"}
}

// SweepPreset resolves a -scale preset name into run options and a grid:
//
//   - "smoke": the CI gate — 2 schemes × random × read/write × {4,16} KB on
//     the small testbed, healthy and degraded (one OSD failed) cluster
//     states, short windows; finishes in tens of seconds.
//   - "quick": 3 schemes × both patterns × read/write × the Quick block
//     sweep on the small testbed, healthy cluster only.
//   - "paper": the full campaign — 52-OSD array, 3 schemes × both
//     patterns × read/write × the paper's 1 KB..128 KB sweep, stripe units
//     {4,16,64} KB, the full codec-kernel ladder (fixed, not
//     host-detected, so the grid is identical on every machine and shards
//     from heterogeneous hosts merge), and all three fault states
//     (healthy, degraded, recovering — the §IV-E axis). Hours of wall
//     time serially; shard it (ecbench -shard i/n).
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
			Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)"},
			Patterns:    []string{workload.Sequential.String(), workload.Random.String()},
			Ops:         []string{workload.Read.String(), workload.Write.String()},
			BlockSizes:  Quick().BlockSizes,
			StripeUnits: []int64{4 << 10},
			Kernels:     []string{"auto"},
			Faults:      []string{"none"},
		}, nil
	case "paper":
		o := Paper()
		paperCfg := core.PaperScaleConfig()
		o.StorageNodes = paperCfg.StorageNodes
		o.OSDsPerNode = paperCfg.OSDsPerNode
		return o, Grid{
			Schemes:     []string{"3-Rep", "RS(6,3)", "RS(10,4)"},
			Patterns:    []string{workload.Sequential.String(), workload.Random.String()},
			Ops:         []string{workload.Read.String(), workload.Write.String()},
			BlockSizes:  PaperBlockSizes(),
			StripeUnits: []int64{4 << 10, 16 << 10, 64 << 10},
			Kernels:     kernelLadder(),
			Faults:      FaultAxis(),
		}, nil
	}
	return Options{}, Grid{}, fmt.Errorf("bench: unknown sweep preset %q", name)
}

// cellSeed folds a cell's identity into the base seed with FNV-1a, so
// every cell draws an independent deterministic stream regardless of
// which shard runs it or in what order.
func cellSeed(base int64, id string) int64 {
	sum := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		sum ^= uint64(id[i])
		sum *= 1099511628211
	}
	return base ^ int64(sum&0x7fffffffffffffff)
}

// SweepWorkers is how many cells of a sweep run side by side: one per
// core the Go scheduler may use, and never more than there are cells. A
// worker beyond GOMAXPROCS would only make every in-flight cell slower.
func SweepWorkers(cells int) int {
	return min(runtime.GOMAXPROCS(0), cells)
}

// RunSweep executes this shard's slice of the grid (cells whose
// enumeration index ≡ shardIdx mod shardCount; pass 0, 1 for the whole
// grid) and returns the machine-readable report. progress, when non-nil,
// is called after each cell with the shard-local done count and total.
//
// Cells are independent (own engine, own seed), so they run on
// SweepWorkers goroutines; every deterministic field of the report is the
// same at any GOMAXPROCS. progress is called from the calling goroutine,
// in completion order. If cells fail, no further cells are started and the
// error of the failing cell that comes first in the grid is returned.
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

	// The GF kernel is process-wide, so only cells of one kernel may be in
	// flight together: cells run kernel by kernel, kernels in the order the
	// grid first names them.
	var kernels []string
	byKernel := map[string][]CellKey{}
	for _, k := range mine {
		if _, seen := byKernel[k.Kernel]; !seen {
			kernels = append(kernels, k.Kernel)
		}
		byKernel[k.Kernel] = append(byKernel[k.Kernel], k)
	}
	var eng engineStats
	done := 0
	for _, kern := range kernels {
		cells := byKernel[kern]
		outcomes := s.runKernelGroup(kern, cells, func(k CellKey) {
			done++
			if progress != nil {
				progress(done, len(mine), k.ID())
			}
		})
		for i, o := range outcomes {
			if o.err != nil {
				return nil, fmt.Errorf("bench: cell %s: %w", cells[i].ID(), o.err)
			}
			r.Cells = append(r.Cells, o.report)
			eng.add(o.eng)
		}
	}
	s.eng.add(eng)
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

// cellOutcome is what one sweep cell hands back to RunSweep: cells run
// concurrently, so they share nothing and the caller does the summing.
// A cell that was never started (an earlier one failed) stays zero.
type cellOutcome struct {
	report CellReport
	eng    engineStats
	err    error
}

// runKernelGroup runs cells — all of one kernel — on SweepWorkers
// goroutines with that kernel active and returns their outcomes, in the
// order of cells. completed is called on the calling goroutine after each
// cell that succeeded. After a failure no further cell is started.
func (s *Suite) runKernelGroup(kernel string, cells []CellKey, completed func(CellKey)) []cellOutcome {
	kern, _ := gf.ParseKernel(kernel) // validated with the grid
	prev := gf.SetKernel(kern)
	defer gf.SetKernel(prev)
	if s.Opt.CalibrateEncode {
		// Measure before any cell runs: a measurement must not share the
		// cores with simulation, and afterwards cells only read the cache.
		for _, k := range cells {
			if p := schemeByName(k.Scheme).Profile; p.IsEC() {
				s.encodeMBps(p.K, p.M)
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

// runSweepCell runs one grid cell on a fresh cluster, with the cell's
// kernel tier already active (runKernelGroup; the tier changes wall-clock
// time and calibration provenance, never simulated metrics): the stripe
// unit is applied to the cluster config, and the cell's own seed drives
// both the cluster and the load generator. It runs concurrently with other
// cells and so only reads the suite.
func (s *Suite) runSweepCell(k CellKey) (CellReport, engineStats, error) {
	scheme := schemeByName(k.Scheme) // validated with the grid
	id := k.ID()
	seed := cellSeed(s.Opt.Seed, id)
	started := time.Now()
	cfg := s.baseConfig(seed)
	cfg.StripeUnit = k.StripeUnit
	s.applyCodecConfig(&cfg, scheme.Profile)
	cfg.CodecKernel = k.Kernel
	c, img, err := s.clusterWith(cfg, scheme.Profile)
	if err != nil {
		return CellReport{}, engineStats{}, err
	}

	op := workload.Read
	if k.Op == workload.Write.String() {
		op = workload.Write
	}
	pattern := workload.Sequential
	if k.Pattern == workload.Random.String() {
		pattern = workload.Random
	}
	job := workload.Job{
		Name:       id,
		Op:         op,
		Pattern:    pattern,
		BlockSize:  k.BlockSize,
		QueueDepth: s.Opt.QueueDepth,
		Duration:   s.Opt.Duration,
		Seed:       seed,
	}
	if op == workload.Read {
		img.Prefill()
		job.Ramp = s.Opt.Ramp
	}
	res, err := s.runCellJob(c, img, job, k.fault())
	if err != nil {
		return CellReport{}, engineStats{}, err
	}
	eng := finishRun(c.Engine(), started)

	cell := Cell{Result: res}
	gray := c.GrayMetrics()
	cr := CellReport{
		ID:         id,
		Scheme:     k.Scheme,
		Pattern:    k.Pattern,
		Op:         k.Op,
		BlockSize:  k.BlockSize,
		StripeUnit: k.StripeUnit,
		Kernel:     k.Kernel,
		Fault:      k.fault(),
		Seed:       seed,

		Ops:              res.Ops,
		Bytes:            res.Bytes,
		MBps:             res.MBps,
		IOPS:             res.IOPS,
		MeanLatencyUS:    float64(res.MeanLatency) / 1e3,
		P50LatencyUS:     float64(res.P50Latency) / 1e3,
		P99LatencyUS:     float64(res.P99Latency) / 1e3,
		MaxLatencyUS:     float64(res.MaxLatency) / 1e3,
		UserCPU:          res.Metrics.UserCPU,
		KernelCPU:        res.Metrics.KernelCPU,
		CtxPerMB:         cell.CtxPerMB(),
		DevReadPerReq:    cell.DevReadPerReq(),
		DevWritePerReq:   cell.DevWritePerReq(),
		NetPerReq:        cell.NetPerReq(),
		FlashWritePerReq: cell.FlashWritePerReq(),
		Errors:           res.Errors,
		EngineEvents:     eng.events,
		SimSeconds:       eng.virtual.Seconds(),

		GrayShardTimeouts: gray.ShardTimeouts,
		GrayShardFaults:   gray.ShardFaults,
		GrayShardRetries:  gray.ShardRetries,
		GrayHedgesIssued:  gray.HedgesIssued,
		GrayHedgesWon:     gray.HedgesWon,
		GrayEjects:        gray.Ejects,
		GrayReadmits:      gray.Readmits,

		Checks: cellChecks(k, cell),
	}
	cr.WallMS = float64(eng.wall.Microseconds()) / 1e3
	if secs := eng.wall.Seconds(); secs > 0 {
		cr.EventsPerSec = float64(cr.EngineEvents) / secs
	}
	return cr, eng, nil
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
func cellChecks(k CellKey, c Cell) []paperref.CheckResult {
	if k.fault() != "none" {
		// The paper-band numbers describe the healthy cluster; fault cells
		// are checked cross-cell (healthy vs degraded) at report level.
		return nil
	}
	var out []paperref.CheckResult
	rand, seq := workload.Random.String(), workload.Sequential.String()
	read, write := workload.Read.String(), workload.Write.String()
	if k.Scheme == "RS(6,3)" && k.Pattern == rand && k.Op == read && k.BlockSize == 4<<10 {
		if p, ok := paperref.Lookup("fig15", "rs63_rand_4k"); ok {
			// EC rand-read amplification ≈ stripe/bs chunk pulls (paper 6.9×).
			out = append(out, p.CheckWithin(c.DevReadPerReq(), 3, 9))
		}
	}
	if (k.Scheme == "RS(6,3)" || k.Scheme == "RS(10,4)") && k.Pattern == rand && k.Op == write {
		if p, ok := paperref.Lookup("fig9", "user_share"); ok {
			if total := c.Metrics.UserCPU + c.Metrics.KernelCPU; total > 0 {
				out = append(out, p.CheckWithin(c.Metrics.UserCPU/total, 0.55, 0.9))
			}
		}
	}
	if k.Scheme == "3-Rep" && k.Pattern == seq && k.Op == write && k.BlockSize == 1<<10 {
		if p, ok := paperref.Lookup("fig13", "rep_1k_read_amp"); ok {
			// Sub-minimum-I/O writes read-amplify ~9× (4 KB min I/O).
			out = append(out, p.CheckWithin(c.DevReadPerReq(), 2, 20))
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
	return out
}
