// Package ecarray reproduces "Understanding System Characteristics of
// Online Erasure Coding on Scalable, Distributed and Large-Scale SSD Array
// Systems" (Koh et al., IISWC 2017) as a Go library.
//
// It provides:
//
//   - a from-scratch Reed-Solomon erasure codec over GF(2^8) with the
//     extended-Vandermonde systematic generator construction the paper
//     describes (§II-C);
//   - a deterministic discrete-event simulation of the paper's testbed — a
//     Ceph-like cluster of 4 storage nodes, 24 OSDs on simulated SSDs with
//     page-mapped FTLs, 10 Gb public/private networks, placement groups,
//     replicated and erasure-coded backends, and RBD image striping;
//   - an FIO-like workload runner, a composable Scenario API for multi-job
//     multi-phase experiments with mid-run fault events, and a benchmark
//     harness that regenerates every figure of the paper's evaluation
//     (Figs 1, 5-20), plus a blktrace-style trace recorder reproducing the
//     released 54-trace corpus.
//
// # Quick start
//
// A scenario composes any number of concurrent jobs with a phase timeline
// and fault/repair events, all on one deterministic simulation — the
// combinations behind the paper's most interesting results (degraded reads
// during recovery, §IV-E; repair traffic against foreground load; mixed
// tenants) in a few lines:
//
//	cluster, err := ecarray.NewCluster(ecarray.DefaultConfig())
//	pool, err := cluster.CreatePool("data", ecarray.ProfileEC(6, 3))
//	img, err := cluster.CreateImage("data", "vol0", 8<<30)
//	img.Prefill()
//	res, err := ecarray.NewScenario(cluster).
//	    AddJob(img, ecarray.Job{
//	        Name: "fg", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
//	        BlockSize: 4096, QueueDepth: 256, Duration: 3 * time.Second,
//	    }).
//	    Phase("healthy", time.Second).
//	    Phase("degraded", time.Second).
//	    Phase("recovering", time.Second).
//	    At(time.Second, ecarray.FailOSD(3)).
//	    At(2*time.Second, ecarray.StartRecovery("data")).
//	    Run()
//	fmt.Println(res) // per-job, per-phase results + recovery stats + event log
//
// The same seed and scenario yield byte-identical metrics on every run.
// For a single closed-loop job, RunJob remains the one-call wrapper:
//
//	res, err := ecarray.RunJob(cluster, img, ecarray.Job{
//	    Op: ecarray.OpWrite, Pattern: ecarray.PatternRandom,
//	    BlockSize: 4096, QueueDepth: 256, Duration: 2 * time.Second,
//	})
//
// The facade exports what the programs under examples/ and cmd/ecctl use,
// and the types those calls take and return. Each example is a runnable
// program with a test beside it that runs it twice and checks what it
// demonstrates (examples/scenario shows mixed tenants with a mid-run
// failure). The trace corpus comes from ecbench -sweep -traces DIR.
package ecarray

import (
	"io"

	"ecarray/internal/bench"
	"ecarray/internal/core"
	"ecarray/internal/rs"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
	"ecarray/internal/trace"
	"ecarray/internal/workload"
)

// Core cluster types.
type (
	// Config describes the simulated cluster (see DefaultConfig).
	Config = core.Config
	// Profile selects a pool's fault-tolerance mechanism.
	Profile = core.Profile
	// Cluster is the assembled storage system.
	Cluster = core.Cluster
	// Pool is a PG-sharded namespace with one fault-tolerance profile.
	Pool = core.Pool
	// Image is an RBD-style block device striped over 4 MiB objects.
	Image = core.Image
	// Proc is a simulation process handle.
	Proc = sim.Proc
)

// Workload and scenario types.
type (
	// Job describes an FIO-like run.
	Job = workload.Job
	// Result summarizes a run.
	Result = workload.Result
	// Op is the request type of a job.
	Op = workload.Op
	// Scenario composes concurrent jobs, phases and fault events.
	Scenario = workload.Scenario
	// ScenarioEvent is a scheduled cluster action (FailOSD, StartRecovery,
	// SetRecoveryRate, DegradeOSD, RestoreOSDHealth).
	ScenarioEvent = workload.Event
)

// Gray-failure types: slow/flaky-but-alive OSDs and the tail-tolerance
// machinery that detects and routes around them.
type (
	// GrayConfig holds the tail-tolerance knobs — per-shard request
	// deadlines with retry/backoff, hedged reads, and OSD health scoring
	// with circuit-breaker eject — tuning the shard fetch every read runs.
	// The zero value turns each mechanism off.
	GrayConfig = core.GrayConfig
	// OSDDegradation describes an injected gray fault on one OSD: device
	// degradation and/or a host network latency multiplier.
	OSDDegradation = core.OSDDegradation
	// DeviceDegradation is the SSD-level gray fault: a service-latency
	// multiplier, an intermittent-error probability, and stuck I/O.
	DeviceDegradation = ssd.Degradation
)

// Benchmark-harness types.
type (
	// BenchOptions scales the figure reproduction.
	BenchOptions = bench.Options
	// Suite runs sweep cells and caches each by its cell ID; figures
	// and sweeps read the same cells.
	Suite = bench.Suite
	// BenchTable is one rendered figure.
	BenchTable = bench.Table
	// Scheme pairs a display name with a pool profile.
	Scheme = bench.Scheme
)

// Trace types.
type (
	// TraceRecorder captures blktrace-style events from OSD devices.
	TraceRecorder = trace.Recorder
	// TraceEvent is one block-level I/O.
	TraceEvent = trace.Event
	// TraceStats summarizes a trace.
	TraceStats = trace.Stats
)

// ParseTrace reads a serialized trace, returning headers and events.
func ParseTrace(r io.Reader) (map[string]string, []TraceEvent, error) {
	return trace.Parse(r)
}

// SummarizeTrace computes aggregate statistics over trace events.
func SummarizeTrace(events []TraceEvent) TraceStats {
	return trace.Summarize(events)
}

// RS is the Reed-Solomon codec (the paper's coding substrate).
type RS = rs.Code

// Workload constants.
const (
	PatternRandom = workload.Random
	OpRead        = workload.Read
	OpWrite       = workload.Write
	OpMixed       = workload.Mixed
)

// DefaultConfig returns a cluster shaped like the paper's testbed: 4
// storage nodes × 6 OSDs × 24 cores, a 36-core client, and two 10 Gb
// networks.
func DefaultConfig() Config { return core.DefaultConfig() }

// ProfileReplicated returns an n-replica pool profile (paper default: 3).
func ProfileReplicated(n int) Profile { return core.ProfileReplicated(n) }

// ProfileEC returns an RS(k,m) pool profile; the paper evaluates RS(6,3)
// (Google Colossus) and RS(10,4) (Facebook).
func ProfileEC(k, m int) Profile { return core.ProfileEC(k, m) }

// NewCluster builds a cluster on a fresh simulation engine.
func NewCluster(cfg Config) (*Cluster, error) {
	return core.New(sim.NewEngine(), cfg)
}

// RunJob executes an FIO-like job against an image and returns its result:
// the single-job wrapper over the Scenario runner.
func RunJob(c *Cluster, img *Image, job Job) (Result, error) {
	return workload.Run(c, img, job)
}

// NewScenario starts a composable multi-job, multi-phase experiment on the
// cluster. Attach jobs with AddJob, phases with Phase, fault/repair events
// with At, then call Run.
func NewScenario(c *Cluster) *Scenario { return workload.NewScenario(c) }

// FailOSD returns a scenario event that marks an OSD out mid-run; EC pools
// serve its PGs' reads by reconstruction (degraded mode).
func FailOSD(id int) ScenarioEvent { return workload.FailOSD(id) }

// StartRecovery returns a scenario event that launches a background repair
// pass on the named pool while foreground jobs keep running.
func StartRecovery(pool string) ScenarioEvent { return workload.StartRecovery(pool) }

// SetRecoveryRate returns a scenario event capping (0: uncapping) the
// named pool's repair bandwidth in bytes/second of moved data.
func SetRecoveryRate(pool string, bytesPerSec int64) ScenarioEvent {
	return workload.SetRecoveryRate(pool, bytesPerSec)
}

// DefaultGrayConfig returns the tail-tolerance knobs the gray-failure
// experiments use; assign to Config.Gray before NewCluster to enable
// shard deadlines, hedged reads and the health breaker.
func DefaultGrayConfig() GrayConfig { return core.DefaultGrayConfig() }

// DegradeOSD returns a scenario event injecting a gray fault mid-run: the
// OSD stays up and in the acting sets but serves degraded (slow device,
// intermittent errors, stuck I/O, or a stretched host network).
func DegradeOSD(id int, deg OSDDegradation) ScenarioEvent {
	return workload.DegradeOSD(id, deg)
}

// RestoreOSDHealth returns a scenario event clearing an OSD's injected
// degradation; if the health breaker had ejected it, the OSD re-enters
// service through probation and backfill.
func RestoreOSDHealth(id int) ScenarioEvent { return workload.RestoreOSDHealth(id) }

// NewRS constructs an RS(k,m) codec.
func NewRS(k, m int) (*RS, error) { return rs.New(k, m) }

// NewTraceRecorder creates a blktrace-style recorder for the cluster's
// engine; call Attach(cluster) to start capturing.
func NewTraceRecorder(c *Cluster) *TraceRecorder {
	return trace.NewRecorder(c.Engine())
}

// NewSuite creates a figure-reproduction suite.
func NewSuite(opt BenchOptions) (*Suite, error) { return bench.NewSuite(opt) }

// QuickBench returns reduced-scale benchmark options.
func QuickBench() BenchOptions { return bench.Quick() }

// PaperBench returns benchmark options matching the paper's campaign scale.
func PaperBench() BenchOptions { return bench.Paper() }

// TinyBench returns the smallest meaningful benchmark options (tests).
func TinyBench() BenchOptions { return bench.Tiny() }

// Schemes returns the paper's three fault-tolerance configurations.
func Schemes() []Scheme { return bench.Schemes() }

// FigureIDs lists every reproducible figure in paper order.
func FigureIDs() []string { return bench.FigureIDs() }

// ScenarioIDs lists the composed fault/recovery experiments the bench
// suite runs on the Scenario API.
func ScenarioIDs() []string { return bench.ScenarioIDs() }
