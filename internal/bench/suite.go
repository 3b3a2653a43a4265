// Package bench reproduces the paper's evaluation: it runs the workload
// sweeps behind every figure (Figs 1, 5-20), collects the same metrics the
// authors report, and renders them as tables.
//
// There is one cell runner (sweep.go). A cell is a CellKey — scheme,
// pattern, op, block size, stripe unit, fault state, run variant — seeded
// from its own ID by CellKey.seed, run on a fresh cluster (or, for the
// bare-ssd scheme, one bare SSD), and measured into a CellReport. The
// suite caches every cell it runs by ID. RunSweep runs a grid's cells and
// serializes them as a versioned BenchReport (report.go, BENCH_*.json), up
// to the paper-scale 52-OSD campaign, sharded across machines if need be.
// Every figure is a projection of the same cells at the 4 KiB stripe unit,
// healthy cluster: Figs 1 and 5-18 at the suite's block sizes, Figs 19-20
// the time series of their "series" and "prefill-writes" variant cells
// (variants.go). Each mechanism ablation (ablation.go) is a table over a
// small grid of them: a table and the sweep cell with the same key print
// the same number. CompareReports
// (compare.go) is the gate CI applies across commits (see README "CI
// regression gates"): two reports pass only with equal deterministic
// digests, and it lists every cell field that changed.
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

	// CodecConcurrency caps the RS codec's worker goroutines in carry-mode
	// clusters (0 = GOMAXPROCS, 1 = serial). Metrics are identical at any
	// setting; only wall-clock time changes.
	CodecConcurrency int
	// CalibrateEncode derives each EC scheme's simulated encode cost from
	// the measured throughput of the real codec (rs.MeasureEncodeMBps)
	// instead of the paper-calibrated constant. Measured numbers vary
	// across machines and kernel tiers, so leave this off for reproducible
	// comparisons; when on, every produced table (and its CSV) carries a
	// note recording the measured MB/s and the kernel that produced it.
	CalibrateEncode bool

	// StorageNodes and OSDsPerNode override the cluster shape (0 = the
	// core.DefaultConfig testbed: 4 nodes × 6 OSDs). Paper() sets them to
	// the full 52-SSD array (4 × 13).
	StorageNodes int
	OSDsPerNode  int
	// TraceDir, when set, is where every trace-corpus cell the suite runs
	// writes its block traces (corpus.go).
	TraceDir string
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

// Paper returns options for full-fidelity runs (cmd/ecbench): the paper's
// 52-SSD array (core.PaperScaleConfig), longer windows, larger image, the
// paper's full block-size sweep. The 24 GiB image (6144 objects) against a
// 10 s window keeps the same initialization-vs-steady-state balance as the
// paper's 100 GB / ~60 s campaign.
func Paper() Options {
	shape := core.PaperScaleConfig()
	return Options{
		BlockSizes:   PaperBlockSizes(),
		QueueDepth:   256,
		ImageSize:    24 << 30,
		PGs:          1024,
		Duration:     10 * time.Second,
		Ramp:         time.Second,
		Seed:         1,
		StorageNodes: shape.StorageNodes,
		OSDsPerNode:  shape.OSDsPerNode,
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
	return max(o.ImageSize*6/24, 2<<30) // worst case: EC fills every object's shards
}

// calibration records one measured codec throughput and the worker count
// that produced it; notes and reports add the kernel tier the CPU picked,
// so figure notes and CSVs can attribute paper-band comparisons to a
// concrete codec configuration.
type calibration struct {
	k, m    int
	mbps    float64 // per-parity-row MB/s
	workers int
}

// calKey identifies one calibration measurement: one per EC scheme.
type calKey struct{ k, m int }

// Suite runs and caches cells.
type Suite struct {
	Opt   Options
	cache map[string]cellOutcome // every cell run so far, by CellKey.ID()
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
	return &Suite{Opt: opt, cache: map[string]cellOutcome{}, mbps: map[calKey]calibration{}}, nil
}

// encodeMBps measures (and caches) the real codec's per-parity-row encode
// throughput for RS(k,m), honoring the suite's concurrency knob. The
// measurement uses 64 KiB shards — the granularity a backend encodes at —
// and is normalized per parity row to match the cost model's EncodePerKB
// semantics.
func (s *Suite) encodeMBps(k, m int) float64 {
	key := calKey{k: k, m: m}
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
	s.mbps[key] = calibration{k: k, m: m, mbps: v, workers: workers}
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
			c.k, c.m, c.mbps, gf.ActiveKernel(), gf.Accelerated(), gf.HasGFNI(), c.workers))
	}
	if len(notes) == 0 {
		return nil
	}
	return notes
}

// sortedCalibrations returns every cached calibration in (k, m) order.
func (s *Suite) sortedCalibrations() []calibration {
	keys := make([]calKey, 0, len(s.mbps))
	for k := range s.mbps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k != keys[j].k {
			return keys[i].k < keys[j].k
		}
		return keys[i].m < keys[j].m
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
		out = append(out, CalibrationInfo{K: c.k, M: c.m, MBps: c.mbps, Kernel: gf.ActiveKernel().String(), Workers: c.workers})
	}
	return out
}

// applyCodecConfig wires the suite's codec knobs — and, when calibrating
// an EC profile, the measured encode cost — into a cluster config. Shared
// by the cell runner and the scenario cluster builder so
// a new knob cannot reach one and miss another.
func (s *Suite) applyCodecConfig(cfg *core.Config, profile core.Profile) {
	cfg.CodecConcurrency = s.Opt.CodecConcurrency
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

// baseConfig builds the cluster config every suite run starts from: the
// suite's device capacity, PG count and cluster shape applied over
// core.DefaultConfig, with the given seed.
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
	return cfg
}

// clusterWith builds a fresh cluster and its one pool image from an
// explicit config (the codec knobs already applied by the caller via
// applyCodecConfig).
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

// clusterFor builds a fresh cluster+image for one scenario run, seeded
// with the suite seed plus the run's own salt.
func (s *Suite) clusterFor(scheme Scheme, seedSalt int64) (*core.Cluster, *core.Image, error) {
	cfg := s.baseConfig(s.Opt.Seed + seedSalt)
	s.applyCodecConfig(&cfg, scheme.Profile)
	return s.clusterWith(cfg, scheme.Profile)
}
