// Package bench reproduces the paper's evaluation: it runs the workload
// sweeps behind every figure (Figs 1, 5-20), collects the same metrics the
// authors report, and renders them as tables. The suite caches one run per
// (scheme, pattern, op, block size) cell; all figure builders read from the
// shared cells, mirroring how the paper derives its many views from the
// same FIO campaigns.
//
// Beyond single figures, the sweep subsystem (sweep.go) runs full
// cross-product campaigns — up to the paper-scale 52-OSD grid over
// schemes, patterns, ops, the 1 KB..128 KB block sweep, stripe units and
// codec-kernel tiers — with independently-seeded, shardable cells, and
// serializes each run as a versioned machine-readable BenchReport
// (report.go, BENCH_*.json). CompareReports (compare.go) diffs two
// reports under noise-aware thresholds: the regression gate CI applies
// across commits (see README "Bench trajectory").
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/gf"
	"ecarray/internal/rs"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
	"ecarray/internal/workload"
)

// Scheme pairs a display name with a pool profile.
type Scheme struct {
	Name    string
	Profile core.Profile
}

// Schemes are the paper's three fault-tolerance configurations.
func Schemes() []Scheme {
	return []Scheme{
		{"3-Rep", core.ProfileReplicated(3)},
		{"RS(6,3)", core.ProfileEC(6, 3)},
		{"RS(10,4)", core.ProfileEC(10, 4)},
	}
}

// Options scales the reproduction. The paper uses a 100 GB image, 60-ish
// second runs and queue depth 256; scaled presets keep the coupon-collection
// dynamics (object initialization vs. run length) proportional.
type Options struct {
	BlockSizes []int64
	QueueDepth int
	ImageSize  int64
	PGs        int
	Duration   time.Duration
	Ramp       time.Duration // read runs only
	Seed       int64
	// DeviceCapacity overrides the per-OSD device size (0 = auto).
	DeviceCapacity int64
	// Cost optionally overrides the cost model (nil = default).
	Cost *core.CostModel

	// CodecConcurrency caps the RS codec's worker goroutines in carry-mode
	// clusters (0 = GOMAXPROCS, 1 = serial). Metrics are identical at any
	// setting; only wall-clock time changes.
	CodecConcurrency int
	// CodecKernel selects the GF kernel tier ("auto", "scalar", "avx2",
	// "fused", "gfni"; empty leaves the process-wide selection alone).
	// Like concurrency, it never changes simulated metrics — only
	// wall-clock time and, with CalibrateEncode, the measured encode cost.
	CodecKernel string
	// CalibrateEncode derives each EC scheme's simulated encode cost from
	// the measured throughput of the real codec (rs.MeasureEncodeMBps)
	// instead of the paper-calibrated constant. Measured numbers vary
	// across machines and kernel tiers, so leave this off for reproducible
	// comparisons; when on, every produced table (and its CSV) carries a
	// note recording the measured MB/s and the kernel that produced it.
	CalibrateEncode bool

	// StorageNodes and OSDsPerNode override the cluster shape (0 = the
	// core.DefaultConfig testbed: 4 nodes × 6 OSDs). The paper-scale sweep
	// preset sets them to the full 52-SSD array (4 × 13).
	StorageNodes int
	OSDsPerNode  int
	// StripeUnit overrides the EC chunk size in bytes (0 = the paper's
	// 4 KiB default). A sweep axis in the paper-scale grid.
	StripeUnit int64
}

// PaperBlockSizes is the paper's 1 KB..128 KB sweep.
func PaperBlockSizes() []int64 {
	return []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
}

// Quick returns options sized for fast iteration: a reduced block-size
// sweep with the image-to-duration ratio tuned so write runs spend a
// paper-like fraction of the window in the object-initialization phase.
func Quick() Options {
	return Options{
		BlockSizes: []int64{4 << 10, 16 << 10, 64 << 10, 128 << 10},
		QueueDepth: 256,
		ImageSize:  4 << 30,
		PGs:        512,
		Duration:   1600 * time.Millisecond,
		Ramp:       300 * time.Millisecond,
		Seed:       1,
	}
}

// Smoke returns options sized for CI smoke runs: the Tiny shape with a
// shorter window, so a whole smoke-scale sweep finishes in tens of seconds
// on a shared runner while still exercising every mechanism (this is the
// scale the bench-trajectory CI job gates on).
func Smoke() Options {
	o := Tiny()
	o.Duration = 400 * time.Millisecond
	o.Ramp = 100 * time.Millisecond
	return o
}

// Tiny returns the smallest meaningful options, for unit tests and
// testing.B benchmark targets.
func Tiny() Options {
	return Options{
		BlockSizes: []int64{4 << 10, 16 << 10},
		QueueDepth: 128,
		ImageSize:  1 << 30,
		PGs:        256,
		Duration:   500 * time.Millisecond,
		Ramp:       100 * time.Millisecond,
		Seed:       1,
	}
}

// Paper returns options for full-fidelity runs (cmd/ecbench): longer
// windows, larger image, the paper's full block-size sweep. The 24 GiB
// image (6144 objects) against a 10 s window keeps the same
// initialization-vs-steady-state balance as the paper's 100 GB / ~60 s
// campaign.
func Paper() Options {
	return Options{
		BlockSizes: PaperBlockSizes(),
		QueueDepth: 256,
		ImageSize:  24 << 30,
		PGs:        1024,
		Duration:   10 * time.Second,
		Ramp:       time.Second,
		Seed:       1,
	}
}

func (o *Options) validate() error {
	switch {
	case len(o.BlockSizes) == 0:
		return fmt.Errorf("bench: no block sizes")
	case o.QueueDepth <= 0 || o.ImageSize <= 0 || o.PGs <= 0:
		return fmt.Errorf("bench: invalid shape")
	case o.Duration <= 0:
		return fmt.Errorf("bench: invalid duration")
	}
	return nil
}

func (o *Options) deviceCapacity() int64 {
	if o.DeviceCapacity > 0 {
		return o.DeviceCapacity
	}
	per := o.ImageSize * 6 / 24 // worst case: EC fills every object's shards
	if per < 2<<30 {
		per = 2 << 30
	}
	return per
}

// Key identifies one suite cell.
type Key struct {
	Scheme  string
	Pattern workload.Pattern
	Op      workload.Op
	BS      int64
}

// Cell is one run's outcome.
type Cell struct {
	workload.Result
}

// DevReadPerReq returns device reads normalized to requested bytes
// (Figs 13a/14a/15).
func (c Cell) DevReadPerReq() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.Metrics.DeviceReadBytes) / float64(c.Bytes)
}

// DevWritePerReq returns device writes normalized to requested bytes
// (Figs 13b/14b).
func (c Cell) DevWritePerReq() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.Metrics.DeviceWriteBytes) / float64(c.Bytes)
}

// NetPerReq returns private-network bytes normalized to requested bytes
// (Figs 16-17).
func (c Cell) NetPerReq() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.Metrics.PrivateBytes) / float64(c.Bytes)
}

// CtxPerMB returns context switches per MiB of data processed (Figs 11-12).
func (c Cell) CtxPerMB() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.Metrics.ContextSwitches) / (float64(c.Bytes) / (1 << 20))
}

// FlashWritePerReq returns flash-level writes normalized to requested bytes
// (§I SSD-lifetime discussion).
func (c Cell) FlashWritePerReq() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return float64(c.Metrics.FlashWriteBytes) / float64(c.Bytes)
}

// calibration records one measured codec throughput and the kernel tier
// that produced it, so figure notes and CSVs can attribute paper-band
// comparisons to a concrete codec configuration.
type calibration struct {
	k, m    int
	mbps    float64 // per-parity-row MB/s
	kernel  string  // gf kernel tier active during the measurement
	workers int
}

// calKey identifies one calibration measurement. The kernel is part of
// the key because the sweep's codec-kernel axis measures each tier
// separately (a gfni measurement must not be reused for a scalar cell).
type calKey struct {
	k, m   int
	kernel string
}

// Suite runs and caches cells.
type Suite struct {
	Opt   Options
	cells map[Key]Cell
	ssd   map[Key]Cell // bare-SSD baseline cells (scheme "SSD")
	mbps  map[calKey]calibration
	eng   engineStats
}

// engineStats aggregates simulator throughput over every run the suite
// executed, so ecbench output tracks an engine-performance trajectory
// (events/sec and virtual-to-wall ratio) alongside the simulated results.
type engineStats struct {
	events  uint64        // engine events dispatched
	virtual time.Duration // simulated time covered
	// wall is the sum of each run's own wall-clock time. Sweep cells run
	// side by side, so this is core-seconds, not elapsed time: events/wall
	// stays the per-core figure whatever the number of workers.
	wall time.Duration
}

func (a *engineStats) add(b engineStats) {
	a.events += b.events
	a.virtual += b.virtual
	a.wall += b.wall
}

// NewSuite returns an empty suite.
func NewSuite(opt Options) (*Suite, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.CodecKernel != "" {
		k, ok := gf.ParseKernel(opt.CodecKernel)
		if !ok {
			return nil, fmt.Errorf("bench: unknown codec kernel %q", opt.CodecKernel)
		}
		gf.SetKernel(k)
	}
	return &Suite{Opt: opt, cells: map[Key]Cell{}, ssd: map[Key]Cell{}, mbps: map[calKey]calibration{}}, nil
}

// encodeMBps measures (and caches) the real codec's per-parity-row encode
// throughput for RS(k,m), honoring the suite's concurrency knob and the
// active GF kernel. The measurement uses 64 KiB shards — the granularity a
// backend encodes at — and is normalized per parity row to match the cost
// model's EncodePerKB semantics.
func (s *Suite) encodeMBps(k, m int) float64 {
	key := calKey{k: k, m: m, kernel: gf.ActiveKernel().String()}
	if v, ok := s.mbps[key]; ok {
		return v.mbps
	}
	code, err := rs.New(k, m)
	if err != nil {
		return 0
	}
	workers := s.Opt.CodecConcurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v := rs.MeasureEncodeMBps(code.WithConcurrency(s.Opt.CodecConcurrency), 64<<10, 60*time.Millisecond)
	v *= float64(m) // data MB/s → per-parity-row MB/s
	s.mbps[key] = calibration{k: k, m: m, mbps: v, kernel: key.kernel, workers: workers}
	return v
}

// CalibrationNotes renders one note line per measured codec, recording the
// throughput and the kernel tier that produced it, so a paper-band
// comparison says which codec generated it. Empty when nothing was
// calibrated.
func (s *Suite) CalibrationNotes() []string {
	notes := make([]string, 0, len(s.mbps))
	for _, c := range s.sortedCalibrations() {
		notes = append(notes, fmt.Sprintf(
			"encode cost calibrated from measured codec: RS(%d,%d) %.0f MB/s per parity row (kernel=%s simd=%v gfni=%v workers=%d)",
			c.k, c.m, c.mbps, c.kernel, gf.Accelerated(), gf.HasGFNI(), c.workers))
	}
	if len(notes) == 0 {
		return nil
	}
	return notes
}

// sortedCalibrations returns every cached calibration in (k, m, kernel)
// order.
func (s *Suite) sortedCalibrations() []calibration {
	keys := make([]calKey, 0, len(s.mbps))
	for k := range s.mbps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k != keys[j].k {
			return keys[i].k < keys[j].k
		}
		if keys[i].m != keys[j].m {
			return keys[i].m < keys[j].m
		}
		return keys[i].kernel < keys[j].kernel
	})
	out := make([]calibration, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.mbps[k])
	}
	return out
}

// calibrationInfo renders the cached calibrations in report form.
func (s *Suite) calibrationInfo() []CalibrationInfo {
	var out []CalibrationInfo
	for _, c := range s.sortedCalibrations() {
		out = append(out, CalibrationInfo{K: c.k, M: c.m, MBps: c.mbps, Kernel: c.kernel, Workers: c.workers})
	}
	return out
}

// applyCodecConfig wires the suite's codec knobs — and, when calibrating
// an EC profile, the measured encode cost — into a cluster config. Shared
// by the figure and ablation cluster builders so a new knob cannot reach
// one and miss the other.
func (s *Suite) applyCodecConfig(cfg *core.Config, profile core.Profile) {
	cfg.CodecConcurrency = s.Opt.CodecConcurrency
	cfg.CodecKernel = s.Opt.CodecKernel
	if s.Opt.CalibrateEncode && profile.IsEC() {
		if mbps := s.encodeMBps(profile.K, profile.M); mbps > 0 {
			cfg.Cost.EncodeMBps = mbps
		}
	}
}

// finishRun ends one simulation run: it closes the engine (killing what is
// still in flight and retiring its worker goroutines, which would otherwise
// pin the whole cluster for the life of the process) and returns the run's
// dispatched events, simulated time and wall time. started is taken just
// before the run's cluster was built, so setup cost counts against the
// simulator too.
func finishRun(e *sim.Engine, started time.Time) engineStats {
	e.Close()
	return engineStats{events: e.Executed(), virtual: e.Now().Duration(), wall: time.Since(started)}
}

// drainAndNote finishes one run and folds it into the suite's
// engine-throughput accounting.
func (s *Suite) drainAndNote(e *sim.Engine, started time.Time) {
	s.eng.add(finishRun(e, started))
}

// EngineReport renders the simulator's aggregate throughput across all runs
// so far: dispatched events per second of run wall time (summed per run, so
// core-seconds when sweep cells overlapped) and the virtual-to-wall time
// ratio. Empty before any run.
func (s *Suite) EngineReport() string {
	if s.eng.events == 0 || s.eng.wall <= 0 {
		return ""
	}
	wall := s.eng.wall.Seconds()
	return fmt.Sprintf("engine: %.1fM events in %.1f core-s (%.2fM events/s per core; %.1fs simulated, %.2fx real time)",
		float64(s.eng.events)/1e6, wall,
		float64(s.eng.events)/wall/1e6,
		s.eng.virtual.Seconds(), s.eng.virtual.Seconds()/wall)
}

// Cell runs (or returns the cached) cell for the key.
func (s *Suite) Cell(scheme Scheme, pattern workload.Pattern, op workload.Op, bs int64) (Cell, error) {
	k := Key{scheme.Name, pattern, op, bs}
	if c, ok := s.cells[k]; ok {
		return c, nil
	}
	c, err := s.runCell(scheme, pattern, op, bs)
	if err != nil {
		return Cell{}, err
	}
	s.cells[k] = c
	return c, nil
}

// baseConfig builds the cluster config every suite run starts from: the
// option overrides (device capacity, PG count, cluster shape, stripe unit,
// cost model) applied over core.DefaultConfig, with the given seed.
func (s *Suite) baseConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.DeviceCapacity = s.Opt.deviceCapacity()
	cfg.Device.Capacity = cfg.DeviceCapacity
	cfg.PGsPerPool = s.Opt.PGs
	cfg.Seed = seed
	if s.Opt.StorageNodes > 0 {
		cfg.StorageNodes = s.Opt.StorageNodes
	}
	if s.Opt.OSDsPerNode > 0 {
		cfg.OSDsPerNode = s.Opt.OSDsPerNode
	}
	if s.Opt.StripeUnit > 0 {
		cfg.StripeUnit = s.Opt.StripeUnit
	}
	if s.Opt.Cost != nil {
		cfg.Cost = *s.Opt.Cost
	}
	return cfg
}

// clusterWith builds a fresh cluster+image from an explicit config (the
// codec knobs already applied by the caller via applyCodecConfig).
func (s *Suite) clusterWith(cfg core.Config, profile core.Profile) (*core.Cluster, *core.Image, error) {
	e := sim.NewEngine()
	c, err := core.New(e, cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.CreatePool("data", profile); err != nil {
		return nil, nil, err
	}
	img, err := c.CreateImage("data", "bench", s.Opt.ImageSize)
	if err != nil {
		return nil, nil, err
	}
	return c, img, nil
}

// clusterFor builds a fresh cluster+image for one cell run.
func (s *Suite) clusterFor(scheme Scheme, seedSalt int64) (*core.Cluster, *core.Image, error) {
	cfg := s.baseConfig(s.Opt.Seed + seedSalt)
	s.applyCodecConfig(&cfg, scheme.Profile)
	return s.clusterWith(cfg, scheme.Profile)
}

func (s *Suite) runCell(scheme Scheme, pattern workload.Pattern, op workload.Op, bs int64) (Cell, error) {
	started := time.Now()
	c, img, err := s.clusterFor(scheme, bs)
	if err != nil {
		return Cell{}, err
	}
	job := workload.Job{
		Name:       fmt.Sprintf("%s-%s-%s-%d", scheme.Name, pattern, op, bs),
		Op:         op,
		Pattern:    pattern,
		BlockSize:  bs,
		QueueDepth: s.Opt.QueueDepth,
		Duration:   s.Opt.Duration,
		Seed:       s.Opt.Seed,
	}
	if op == workload.Read {
		// The paper pre-writes images before read measurements (§III).
		img.Prefill()
		job.Ramp = s.Opt.Ramp
	}
	res, err := workload.Run(c, img, job)
	if err != nil {
		return Cell{}, err
	}
	s.drainAndNote(c.Engine(), started)
	return Cell{Result: res}, nil
}

// BareSSD runs (or returns cached) the Fig 18 baseline: the same pattern
// directly against one simulated OSD device, no cluster software.
func (s *Suite) BareSSD(pattern workload.Pattern, op workload.Op, bs int64) (Cell, error) {
	k := Key{"SSD", pattern, op, bs}
	if c, ok := s.ssd[k]; ok {
		return c, nil
	}
	c, err := s.runBareSSD(pattern, op, bs)
	if err != nil {
		return Cell{}, err
	}
	s.ssd[k] = c
	return c, nil
}

func (s *Suite) runBareSSD(pattern workload.Pattern, op workload.Op, bs int64) (Cell, error) {
	started := time.Now()
	e := sim.NewEngine()
	capacity := int64(4 << 30)
	dev, err := ssd.New(e, "bare", ssd.DefaultConfig(capacity))
	if err != nil {
		return Cell{}, err
	}
	span := capacity / 2
	blocks := span / bs
	rng := sim.NewRand(s.Opt.Seed)
	end := sim.Time(s.Opt.Duration)
	var ops, bytes int64
	var cursor int64 // shared sequential cursor, as one FIO job
	// Device-level queue depth: bounded by NCQ, as with FIO on a raw device.
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
	s.drainAndNote(e, started)
	res := workload.Result{
		Job:   workload.Job{Op: op, Pattern: pattern, BlockSize: bs},
		Ops:   ops,
		Bytes: bytes,
	}
	secs := s.Opt.Duration.Seconds()
	res.MBps = float64(bytes) / secs / (1 << 20)
	res.IOPS = float64(ops) / secs
	return Cell{Result: res}, nil
}
