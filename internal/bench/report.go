package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"ecarray/internal/paperref"
)

// ReportSchemaVersion is the BENCH_*.json schema version. Bump it on any
// field rename or semantic change; readers refuse reports from a different
// major version, so the trajectory stays machine-comparable across PRs
// (see README "Bench trajectory" for the compatibility policy).
const ReportSchemaVersion = 1

// HostInfo fingerprints the machine that produced a report. Purely
// informational: simulated metrics are host-independent, so HostInfo is
// excluded from the deterministic digest and from regression comparison.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CodecInfo records the codec capability of the producing machine.
type CodecInfo struct {
	// ActiveKernel is the process-wide GF kernel tier resolved at report
	// time ("auto" requests resolve to the concrete tier).
	ActiveKernel string `json:"active_kernel"`
	Accelerated  bool   `json:"accelerated"` // AVX2-backed vector tiers
	GFNI         bool   `json:"gfni"`        // GFNI/AVX-512 tier hardware-backed
}

// CalibrationInfo is the measured-codec provenance of one calibrated
// encode cost: which RS shape, the measured per-parity-row MB/s, and the
// kernel tier and worker count that produced the measurement.
type CalibrationInfo struct {
	K       int     `json:"k"`
	M       int     `json:"m"`
	MBps    float64 `json:"mbps"`
	Kernel  string  `json:"kernel"`
	Workers int     `json:"workers"`
}

// ReportConfig is the deterministic run shape behind every cell of a
// report. Two reports with equal ReportConfig and equal grids are directly
// comparable cell by cell.
type ReportConfig struct {
	Preset           string `json:"preset"`
	DurationMS       int64  `json:"duration_ms"`
	RampMS           int64  `json:"ramp_ms"`
	QueueDepth       int    `json:"queue_depth"`
	ImageBytes       int64  `json:"image_bytes"`
	PGs              int    `json:"pgs"`
	Seed             int64  `json:"seed"`
	StorageNodes     int    `json:"storage_nodes"`
	OSDsPerNode      int    `json:"osds_per_node"`
	TotalOSDs        int    `json:"total_osds"`
	CalibrateEncode  bool   `json:"calibrate_encode"`
	CodecConcurrency int    `json:"codec_concurrency"`
}

// EngineInfo aggregates simulator throughput over every cell a report ran.
// Events and VirtualSeconds are deterministic; WallSeconds and
// EventsPerSec are timing and carry the engine-performance trajectory the
// CI gate watches.
type EngineInfo struct {
	Events         uint64  `json:"events"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	// WallSeconds is the sum of every cell's own wall time. Cells run side
	// by side on all cores, so it is core-seconds, not the sweep's elapsed
	// time, and EventsPerSec = Events / WallSeconds is the per-core rate:
	// comparable across worker counts and with reports from serial runs.
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// CellReport is one sweep cell's outcome. All fields above the timing
// block are deterministic: the same binary, grid and seed reproduce them
// byte-identically on any machine (asserted by TestSweepDeterminism), so
// regression comparison can hold them to tight thresholds.
type CellReport struct {
	ID         string `json:"id"`
	Scheme     string `json:"scheme"`
	Pattern    string `json:"pattern"`
	Op         string `json:"op"`
	BlockSize  int64  `json:"block_size"`
	StripeUnit int64  `json:"stripe_unit"`
	Kernel     string `json:"kernel"`
	Fault      string `json:"fault,omitempty"` // "none", "degraded", "recovering"
	Seed       int64  `json:"seed"`

	Ops              int64   `json:"ops"`
	Bytes            int64   `json:"bytes"`
	MBps             float64 `json:"mbps"`
	IOPS             float64 `json:"iops"`
	MeanLatencyUS    float64 `json:"mean_latency_us"`
	P50LatencyUS     float64 `json:"p50_latency_us"`
	P99LatencyUS     float64 `json:"p99_latency_us"`
	MaxLatencyUS     float64 `json:"max_latency_us"`
	UserCPU          float64 `json:"user_cpu"`
	KernelCPU        float64 `json:"kernel_cpu"`
	CtxPerMB         float64 `json:"ctx_per_mb"`
	DevReadPerReq    float64 `json:"dev_read_per_req"`
	DevWritePerReq   float64 `json:"dev_write_per_req"`
	NetPerReq        float64 `json:"net_per_req"`
	FlashWritePerReq float64 `json:"flash_write_per_req"`
	Errors           int64   `json:"errors"`
	EngineEvents     uint64  `json:"engine_events"`
	SimSeconds       float64 `json:"sim_seconds"`

	// Gray tail-tolerance counters. Plain sweeps inject no faults, so all
	// of these must stay zero; a nonzero value here means gray-path
	// activity leaked into the default data path.
	GrayShardTimeouts int64 `json:"gray_shard_timeouts"`
	GrayShardFaults   int64 `json:"gray_shard_faults"`
	GrayShardRetries  int64 `json:"gray_shard_retries"`
	GrayHedgesIssued  int64 `json:"gray_hedges_issued"`
	GrayHedgesWon     int64 `json:"gray_hedges_won"`
	GrayEjects        int64 `json:"gray_ejects"`
	GrayReadmits      int64 `json:"gray_readmits"`

	// Checks are the structured paper-band verdicts applicable to this
	// cell alone (cross-cell ratio checks live in BenchReport.Checks).
	Checks []paperref.CheckResult `json:"checks,omitempty"`

	// Timing fields: host-dependent, excluded from the deterministic
	// digest and from exact comparison.
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// ReportCheck is a cross-cell paper-band verdict (a ratio between scheme
// cells, say) with the IDs of the cells that fed it.
type ReportCheck struct {
	paperref.CheckResult
	Cells []string `json:"cells"`
}

// BenchReport is the versioned machine-readable outcome of one sweep run
// (or a merge of shard runs): everything ecbench -compare needs to gate a
// commit, everything a plotting script needs to re-derive a paper figure.
type BenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GitSHA        string `json:"git_sha,omitempty"`
	CreatedAt     string `json:"created_at,omitempty"` // RFC3339; timing

	Host  HostInfo  `json:"host"`
	Codec CodecInfo `json:"codec"`

	Config ReportConfig `json:"config"`
	Grid   Grid         `json:"grid"`

	// ShardIndex/ShardCount record which slice of the grid this report
	// covers (0/1 = the whole grid; merged reports are normalized back to
	// 0/1 once every cell is present).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	Engine       EngineInfo        `json:"engine"`
	Calibrations []CalibrationInfo `json:"calibrations,omitempty"`
	Cells        []CellReport      `json:"cells"`
	Checks       []ReportCheck     `json:"checks,omitempty"`
}

// hostInfo fingerprints the current process.
func hostInfo() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteFile serializes the report as indented JSON at path.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads and validates a BENCH_*.json report. Reports written
// by a different schema version are refused: the trajectory comparison
// only makes sense within one schema generation.
func LoadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse report %s: %w", path, err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: report %s has schema version %d, this binary reads version %d (regenerate the report or pin a matching ecbench)",
			path, r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// sortCells orders cells canonically (by ID) so serialized reports are
// layout-independent of execution order.
func (r *BenchReport) sortCells() {
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].ID < r.Cells[j].ID })
}

// stripTiming zeroes every host- and timing-dependent field, leaving only
// the deterministic payload. Used by DeterministicDigest and the
// determinism tests ("byte-identical modulo host/timing fields").
func (r *BenchReport) stripTiming() *BenchReport {
	c := *r
	c.GitSHA = ""
	c.CreatedAt = ""
	c.Host = HostInfo{}
	c.Codec = CodecInfo{}
	c.ShardIndex, c.ShardCount = 0, 1
	c.Engine.WallSeconds = 0
	c.Engine.EventsPerSec = 0
	c.Calibrations = nil // measured MB/s is host-dependent
	c.Cells = append([]CellReport(nil), r.Cells...)
	for i := range c.Cells {
		c.Cells[i].WallMS = 0
		c.Cells[i].EventsPerSec = 0
	}
	c.sortCells()
	return &c
}

// DeterministicDigest returns an FNV-1a hash over the report's
// deterministic payload (cells, config, grid, checks — not wall-clock,
// host or provenance fields). Two runs of the same binary and grid must
// produce equal digests, shard-split or not; a digest change means
// simulated behaviour changed.
func (r *BenchReport) DeterministicDigest() string {
	data, err := json.Marshal(r.stripTiming())
	if err != nil {
		// Marshal of a plain struct cannot fail; keep the signature simple.
		panic(err)
	}
	sum := uint64(14695981039346656037)
	for _, b := range data {
		sum ^= uint64(b)
		sum *= 1099511628211
	}
	return fmt.Sprintf("%016x", sum)
}

// Cell returns the cell with the given ID (nil if absent).
func (r *BenchReport) Cell(id string) *CellReport {
	for i := range r.Cells {
		if r.Cells[i].ID == id {
			return &r.Cells[i]
		}
	}
	return nil
}

// MergeReports combines shard reports of one sweep into a single report:
// the union of their cells, summed engine totals, and cross-cell paper
// checks recomputed over the full cell set. All inputs must agree on
// schema version, config and grid; duplicate cell IDs must carry an
// identical deterministic payload (the determinism guarantee makes any
// mismatch a hard error, not something to paper over).
func MergeReports(reports ...*BenchReport) (*BenchReport, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("bench: nothing to merge")
	}
	base := reports[0]
	out := *base
	out.Cells = append([]CellReport(nil), base.Cells...)
	out.Calibrations = append([]CalibrationInfo(nil), base.Calibrations...)
	out.Checks = nil
	seen := map[string]int{}
	for i := range out.Cells {
		seen[out.Cells[i].ID] = i
	}
	calSeen := map[calKey]bool{}
	for _, c := range out.Calibrations {
		calSeen[calKey{k: c.K, m: c.M, kernel: c.Kernel}] = true
	}
	for _, r := range reports[1:] {
		if r.SchemaVersion != base.SchemaVersion {
			return nil, fmt.Errorf("bench: merge: schema versions differ (%d vs %d)", base.SchemaVersion, r.SchemaVersion)
		}
		if r.Config != base.Config {
			return nil, fmt.Errorf("bench: merge: run configs differ (%+v vs %+v)", base.Config, r.Config)
		}
		if !r.Grid.equal(base.Grid) {
			return nil, fmt.Errorf("bench: merge: grids differ")
		}
		if r.GitSHA != out.GitSHA {
			out.GitSHA = "mixed"
		}
		out.Engine.Events += r.Engine.Events
		out.Engine.VirtualSeconds += r.Engine.VirtualSeconds
		out.Engine.WallSeconds += r.Engine.WallSeconds
		for _, c := range r.Cells {
			if j, dup := seen[c.ID]; dup {
				if !cellsEqualDeterministic(out.Cells[j], c) {
					return nil, fmt.Errorf("bench: merge: cell %s differs between shards — determinism violation", c.ID)
				}
				continue
			}
			seen[c.ID] = len(out.Cells)
			out.Cells = append(out.Cells, c)
		}
		// Union the calibration provenance: each shard measured only the
		// (k, m, kernel) combinations its cells needed.
		for _, c := range r.Calibrations {
			key := calKey{k: c.K, m: c.M, kernel: c.Kernel}
			if !calSeen[key] {
				calSeen[key] = true
				out.Calibrations = append(out.Calibrations, c)
			}
		}
	}
	sort.Slice(out.Calibrations, func(i, j int) bool {
		a, b := out.Calibrations[i], out.Calibrations[j]
		if a.K != b.K {
			return a.K < b.K
		}
		if a.M != b.M {
			return a.M < b.M
		}
		return a.Kernel < b.Kernel
	})
	if out.Engine.WallSeconds > 0 {
		out.Engine.EventsPerSec = float64(out.Engine.Events) / out.Engine.WallSeconds
	}
	out.ShardIndex, out.ShardCount = 0, 1
	out.sortCells()
	out.Checks = computeReportChecks(&out)
	return &out, nil
}

// cellsEqualDeterministic compares two cells on deterministic fields only.
func cellsEqualDeterministic(a, b CellReport) bool {
	a.WallMS, b.WallMS = 0, 0
	a.EventsPerSec, b.EventsPerSec = 0, 0
	return reflect.DeepEqual(a, b)
}

// Summary renders the report as a table (one row per cell) so a sweep run
// still prints something human-readable next to the JSON artifact.
func (r *BenchReport) Summary() Table {
	t := Table{
		ID: "sweep-" + r.Config.Preset,
		Title: fmt.Sprintf("Sweep %q: %d/%d cells, %d OSDs, window %s",
			r.Config.Preset, len(r.Cells), len(r.Grid.Cells()), r.Config.TotalOSDs,
			time.Duration(r.Config.DurationMS)*time.Millisecond),
		Columns: []string{"cell", "MB/s", "IOPS", "lat ms", "p99 ms", "dev-r/req", "dev-w/req", "net/req", "checks"},
	}
	for _, c := range r.Cells {
		nc := "-"
		if len(c.Checks) > 0 {
			pass := 0
			for _, ch := range c.Checks {
				if ch.Pass {
					pass++
				}
			}
			nc = fmt.Sprintf("%d/%d", pass, len(c.Checks))
		}
		t.Rows = append(t.Rows, []string{
			c.ID, f1(c.MBps), fmt.Sprintf("%.0f", c.IOPS),
			f2(c.MeanLatencyUS / 1e3), f2(c.P99LatencyUS / 1e3),
			f2(c.DevReadPerReq), f2(c.DevWritePerReq), f2(c.NetPerReq), nc,
		})
	}
	for _, ch := range r.Checks {
		t.Notes = append(t.Notes, ch.String())
	}
	t.Notes = append(t.Notes, fmt.Sprintf("deterministic digest %s", r.DeterministicDigest()))
	return t
}
