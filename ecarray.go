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
// See the examples directory for runnable programs (examples/scenario
// shows mixed tenants with a mid-run failure).
package ecarray

import (
	"io"

	"ecarray/internal/bench"
	"ecarray/internal/core"
	"ecarray/internal/qos"
	"ecarray/internal/retry"
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
	// CostModel holds the calibrated software-stack costs.
	CostModel = core.CostModel
	// Profile selects a pool's fault-tolerance mechanism.
	Profile = core.Profile
	// Cluster is the assembled storage system.
	Cluster = core.Cluster
	// Pool is a PG-sharded namespace with one fault-tolerance profile.
	Pool = core.Pool
	// Image is an RBD-style block device striped over 4 MiB objects.
	Image = core.Image
	// Metrics is a snapshot of cluster-side counters.
	Metrics = core.Metrics
	// OSD is one object storage daemon.
	OSD = core.OSD
	// RecoveryStats summarizes a repair pass.
	RecoveryStats = core.RecoveryStats
	// BackfillStats summarizes a backfill pass (divergent-object re-sync
	// after a restored OSD rejoins).
	BackfillStats = core.BackfillStats
	// ScrubStats summarizes a deep-scrub pass (latent-error detection and
	// repair).
	ScrubStats = core.ScrubStats
)

// Simulation engine types.
type (
	// Engine is the deterministic discrete-event engine driving a cluster.
	Engine = sim.Engine
	// Proc is a simulation process handle.
	Proc = sim.Proc
)

// Workload types.
type (
	// Job describes an FIO-like run.
	Job = workload.Job
	// Result summarizes a run.
	Result = workload.Result
	// Sample is one time-series point of a sampled run.
	Sample = workload.Sample
	// Pattern is the access pattern of a job.
	Pattern = workload.Pattern
	// Op is the request type of a job.
	Op = workload.Op
)

// Scenario types.
type (
	// Scenario composes concurrent jobs, phases and fault events.
	Scenario = workload.Scenario
	// ScenarioResult holds per-job, per-phase results plus the merged
	// cluster time series, recovery outcomes and the event log.
	ScenarioResult = workload.ScenarioResult
	// JobResult is one job's whole-run result plus per-phase slices.
	JobResult = workload.JobResult
	// PhaseInfo locates one phase on the scenario clock.
	PhaseInfo = workload.PhaseInfo
	// RecoveryResult is the outcome of one StartRecovery event.
	RecoveryResult = workload.RecoveryResult
	// BackfillResult is the outcome of one backfill pass run by RestoreOSD.
	BackfillResult = workload.BackfillResult
	// ScrubResult is the outcome of one StartScrub event.
	ScrubResult = workload.ScrubResult
	// InjectResult is the outcome of one InjectCorruption event.
	InjectResult = workload.InjectResult
	// ScenarioEvent is a scheduled cluster action (FailOSD, RestoreOSD,
	// StartRecovery, StartScrub, InjectCorruption, SetRecoveryRate,
	// DegradeOSD, RestoreOSDHealth, Callback).
	ScenarioEvent = workload.Event
	// ClusterEvent is one logged cluster-state transition.
	ClusterEvent = core.ClusterEvent
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
	// GrayMetrics counts tail-tolerance outcomes (timeouts, retries,
	// hedges, ejects) cluster-wide.
	GrayMetrics = core.GrayMetrics
	// OSDHealth is one OSD's tracked health: EWMA latency, failure score,
	// and the slow/ejected/degraded flags.
	OSDHealth = core.OSDHealth
	// GrayOpResult is the outcome of one DegradeOSD or RestoreOSDHealth
	// scenario event.
	GrayOpResult = workload.GrayOpResult
)

// Multi-tenant QoS types: admission policies shared by the simulator
// data path (Config.QoS, Job.Tenant) and the service gateway
// (service.GatewayConfig.Admission, the X-Tenant header). Every decision
// can emit an auditable DecisionTrace with the rejected counterfactuals.
type (
	// AdmissionPolicy decides admit/throttle/reject per request.
	AdmissionPolicy = qos.AdmissionPolicy
	// TenantConfig holds one tenant's weight, token rate/burst and
	// shaping bound.
	TenantConfig = qos.TenantConfig
	// AdmissionRequest is one admission question (tenant, cost, time).
	AdmissionRequest = qos.Request
	// AdmissionDecision is a policy verdict (admit/delay/reject + trace).
	AdmissionDecision = qos.Decision
	// DecisionTrace is the auditable record of one policy decision,
	// including the rejected counterfactual candidates.
	DecisionTrace = qos.DecisionTrace
	// QoSConfig wires an admission policy into a simulated cluster
	// (assign to Config.QoS).
	QoSConfig = core.QoSConfig
	// QoSMetrics is the cluster's per-tenant admission ledger.
	QoSMetrics = core.QoSMetrics
	// TenantQoS is one tenant's admission outcome counters.
	TenantQoS = core.TenantQoS
	// QoSReport is a scenario's per-tenant admission outcome, windowed
	// per phase (see Scenario.CaptureQoS).
	QoSReport = workload.QoSReport
	// RetryPolicy is the shared bounded-retry/backoff schedule used by
	// the gateway shard path, the GateClient and the core tail fetcher.
	RetryPolicy = retry.Policy
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
	PatternSequential = workload.Sequential
	PatternRandom     = workload.Random
	OpRead            = workload.Read
	OpWrite           = workload.Write
	OpMixed           = workload.Mixed
)

// DefaultConfig returns a cluster shaped like the paper's testbed: 4
// storage nodes × 6 OSDs × 24 cores, a 36-core client, and two 10 Gb
// networks.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCostModel returns the calibrated software cost model.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// ProfileReplicated returns an n-replica pool profile (paper default: 3).
func ProfileReplicated(n int) Profile { return core.ProfileReplicated(n) }

// ProfileEC returns an RS(k,m) pool profile; the paper evaluates RS(6,3)
// (Google Colossus) and RS(10,4) (Facebook).
func ProfileEC(k, m int) Profile { return core.ProfileEC(k, m) }

// NewCluster builds a cluster on a fresh simulation engine.
func NewCluster(cfg Config) (*Cluster, error) {
	return core.New(sim.NewEngine(), cfg)
}

// NewClusterOn builds a cluster on an existing engine (for co-simulation
// with custom processes).
func NewClusterOn(e *Engine, cfg Config) (*Cluster, error) {
	return core.New(e, cfg)
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

// RestoreOSD returns a scenario event that marks a failed OSD back in and
// immediately backfills: positions whose objects diverged during the outage
// are served by reconstruction until the paced backfill pass re-syncs them,
// so stale shard contents are never read.
func RestoreOSD(id int) ScenarioEvent { return workload.RestoreOSD(id) }

// RestoreOSDNoBackfill is RestoreOSD without the automatic backfill pass:
// divergent positions stay excluded from service until a backfill runs.
func RestoreOSDNoBackfill(id int) ScenarioEvent { return workload.RestoreOSDNoBackfill(id) }

// StartScrub returns a scenario event that launches a deep-scrub pass on
// the named pool, detecting and repairing latent shard errors.
func StartScrub(pool string) ScenarioEvent { return workload.StartScrub(pool) }

// InjectCorruption returns a scenario event that silently corrupts the
// shard copy of obj at the given shard position in the named pool (a latent
// media error for StartScrub to find).
func InjectCorruption(pool, obj string, shard int) ScenarioEvent {
	return workload.InjectCorruption(pool, obj, shard)
}

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

// ScenarioCallback returns an escape-hatch scenario event running fn as a
// simulation process; fn must keep the run deterministic.
func ScenarioCallback(name string, fn func(p *Proc, c *Cluster)) ScenarioEvent {
	return workload.Callback(name, fn)
}

// NewTokenBucket returns a per-tenant token-bucket admission policy:
// requests within the burst pass, modest overruns are shaped by a delay
// up to each tenant's MaxWait, and worse is rejected with a Retry-After
// hint. def applies to tenants not in the map.
func NewTokenBucket(def TenantConfig, tenants map[string]TenantConfig) AdmissionPolicy {
	return qos.NewTokenBucket(def, tenants)
}

// NewMaxInflight returns the classic bounded-admission policy: at most
// limit requests in flight, regardless of tenant.
func NewMaxInflight(limit int) AdmissionPolicy { return qos.NewMaxInflight(limit) }

// NewWeightedFair returns a weighted-fair admission policy: the inflight
// limit is split into per-tenant shares proportional to weight, and no
// tenant can exceed its share — unconditional isolation under overload.
func NewWeightedFair(limit int, def TenantConfig, tenants map[string]TenantConfig) AdmissionPolicy {
	return qos.NewWeightedFair(limit, def, tenants)
}

// UnlimitedAdmission returns the always-admit policy (still traced).
func UnlimitedAdmission() AdmissionPolicy { return qos.Unlimited{} }

// NewRS constructs an RS(k,m) codec.
func NewRS(k, m int) (*RS, error) { return rs.New(k, m) }

// NewTraceRecorder creates a blktrace-style recorder for the cluster's
// engine; call Attach(cluster) to start capturing.
func NewTraceRecorder(c *Cluster) *TraceRecorder {
	return trace.NewRecorder(c.Engine())
}

// NewSuite creates a figure-reproduction suite.
func NewSuite(opt BenchOptions) (*Suite, error) { return bench.NewSuite(opt) }

// QuickBench returns reduced-scale benchmark options; PaperBench returns
// the full-fidelity preset.
func QuickBench() BenchOptions { return bench.Quick() }

// PaperBench returns benchmark options matching the paper's campaign scale.
func PaperBench() BenchOptions { return bench.Paper() }

// TinyBench returns the smallest meaningful benchmark options (tests).
func TinyBench() BenchOptions { return bench.Tiny() }

// Schemes returns the paper's three fault-tolerance configurations.
func Schemes() []Scheme { return bench.Schemes() }

// FigureIDs lists every reproducible figure in paper order.
func FigureIDs() []string { return bench.FigureIDs() }

// AblationIDs lists the mechanism-ablation experiments.
func AblationIDs() []string { return bench.AblationIDs() }

// ScenarioIDs lists the composed fault/recovery experiments the bench
// suite runs on the Scenario API.
func ScenarioIDs() []string { return bench.ScenarioIDs() }
