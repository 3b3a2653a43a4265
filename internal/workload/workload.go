// Package workload drives the cluster with FIO-like jobs and composes them
// into scenarios.
//
// A Job is one load generator against an RBD image: sequential or random,
// read, write or mixed, closed-loop (a fixed queue depth of outstanding
// requests, the paper uses 256) or open-loop (a fixed arrival rate,
// Job.Rate), measuring client-visible throughput and latency plus the
// cluster-side metrics behind the paper's figures.
//
// A Scenario composes any number of concurrent jobs with a phase timeline
// and mid-run fault/repair events (FailOSD, StartRecovery, recovery
// throttling) on one deterministic simulation — the harness shape of
// multi-job FIO files and cluster-testbed suites, covering the paper's
// combination effects: degraded reads during recovery (§IV-E), mixed
// tenants across pools, repair traffic under foreground load. Run is the
// single-job wrapper over the same runner.
package workload

import (
	"fmt"
	"time"

	"ecarray/internal/core"
)

// Pattern is the access pattern.
type Pattern int

// Access patterns.
const (
	Sequential Pattern = iota
	Random
)

func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

// Op is the request type.
type Op int

// Request types.
const (
	Read Op = iota
	Write
	// Mixed issues reads and writes per Job.MixRead (FIO's rwmixread).
	Mixed
)

func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "mixed"
	}
}

// Arrival selects the inter-arrival process of an open-loop job
// (Job.Rate > 0).
type Arrival int

// Arrival processes.
const (
	// ArrivalFixed spaces arrivals exactly 1/Rate seconds apart (FIO's
	// rate_iops pacing). The default.
	ArrivalFixed Arrival = iota
	// ArrivalPoisson draws exponential inter-arrival times with mean
	// 1/Rate from the job's seeded random stream: a memoryless open-loop
	// load whose bursts probe queueing behaviour that fixed pacing hides.
	// Deterministic like everything else — the same seed produces the
	// same arrival sequence at any codec concurrency.
	ArrivalPoisson
)

func (a Arrival) String() string {
	if a == ArrivalPoisson {
		return "poisson"
	}
	return "fixed"
}

// Job describes one FIO-style load generator.
type Job struct {
	Name string
	// Tenant is the identity the job's ops run under. When the cluster
	// has an admission policy configured (core.Config.Admission), every op
	// passes through it under this name and the per-tenant outcome
	// counters land in the scenario's QoSReport; rejected ops count as
	// job errors. Empty is the anonymous tenant.
	Tenant    string
	Op        Op
	Pattern   Pattern
	BlockSize int64
	// QueueDepth is the closed-loop worker count: that many requests stay
	// outstanding at all times. Ignored when Rate selects open-loop pacing.
	QueueDepth int
	// Rate, when positive, switches the job to open-loop pacing: requests
	// arrive at fixed 1/Rate-second intervals (FIO's rate_iops) regardless
	// of completions, each running independently — overload shows up as
	// latency, not as throttled arrivals.
	Rate float64
	// Arrival selects the open-loop inter-arrival process (fixed-interval
	// or Poisson). Only meaningful with Rate > 0.
	Arrival Arrival
	// Ramp is the warm-up before the measurement window opens; cluster
	// metrics are reset at its end. Write experiments on pristine images
	// use Ramp 0 so object initialization is measured, as in the paper.
	Ramp time.Duration
	// Duration is the measurement window.
	Duration time.Duration
	Seed     int64
	// SampleInterval, when positive, records per-interval time series
	// (throughput, CPU, context switches, private network) for the paper's
	// Figs 19-20.
	SampleInterval time.Duration
	// MixRead is the read percentage for Op == Mixed (e.g. 70). Mixed jobs
	// run under either pattern: random picks offsets independently, while
	// sequential advances one shared cursor and flips a per-request coin
	// for the direction (FIO's rw=rw).
	MixRead int
	// Zipf, when > 1, skews random offsets with a Zipf(s=Zipf) popularity
	// distribution instead of uniform (hot-spot workloads).
	Zipf float64
}

func (j *Job) validate(imageSize int64) error {
	switch {
	case j.BlockSize <= 0 || j.BlockSize > imageSize:
		return fmt.Errorf("workload: bad block size %d", j.BlockSize)
	case j.Rate < 0:
		return fmt.Errorf("workload: negative arrival rate %v", j.Rate)
	case j.Rate == 0 && j.QueueDepth <= 0:
		return fmt.Errorf("workload: bad queue depth %d", j.QueueDepth)
	case j.Arrival != ArrivalFixed && j.Arrival != ArrivalPoisson:
		return fmt.Errorf("workload: unknown arrival process %d", j.Arrival)
	case j.Arrival != ArrivalFixed && j.Rate == 0:
		return fmt.Errorf("workload: arrival process %v requires open-loop pacing (Rate > 0)", j.Arrival)
	case j.Duration <= 0:
		return fmt.Errorf("workload: bad duration %v", j.Duration)
	case j.Ramp < 0:
		return fmt.Errorf("workload: negative ramp")
	case j.Op == Mixed && (j.MixRead <= 0 || j.MixRead >= 100):
		return fmt.Errorf("workload: Mixed requires MixRead in (0,100), got %d", j.MixRead)
	case j.Zipf != 0 && j.Zipf <= 1:
		return fmt.Errorf("workload: Zipf parameter must be > 1")
	}
	return nil
}

// Sample is one time-series point.
type Sample struct {
	Second      float64 `json:"second"`
	MBps        float64 `json:"mbps"`     // client-visible completion throughput
	UserCPU     float64 `json:"user_cpu"` // storage-cluster fraction
	KernelCPU   float64 `json:"kernel_cpu"`
	CtxPerSec   float64 `json:"ctx_per_sec"`
	PrivateRx   float64 `json:"private_rx"` // B/s delivered over the private network
	PrivateTx   float64 `json:"private_tx"` // B/s sent over the private network
	DevReadBps  float64 `json:"dev_read_bps"`
	DevWriteBps float64 `json:"dev_write_bps"`
}

// Result summarizes a run.
type Result struct {
	Job     Job
	Ops     int64
	Bytes   int64
	Seconds float64

	MBps float64
	IOPS float64

	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration

	// Cluster-side counters for the measurement window.
	Metrics core.Metrics

	// Samples is the per-interval time series (empty unless requested).
	Samples []Sample

	// Errors counts failed requests (should be zero without failures).
	Errors int64

	// ReadOps/WriteOps split the op count for mixed jobs.
	ReadOps  int64
	WriteOps int64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s %s bs=%d: %.1f MB/s, %.0f IOPS, lat mean %.2fms p99 %.2fms",
		r.Job.Op, r.Job.Pattern, r.Job.BlockSize, r.MBps, r.IOPS,
		float64(r.MeanLatency)/1e6, float64(r.P99Latency)/1e6)
}

// Run executes one job against the image and returns its result: the
// single-job wrapper over the Scenario runner. It owns the engine for the
// duration of the run: the cluster's metrics are reset at the end of the
// ramp, the load generator stops issuing at the window end, in-flight
// requests drain, and background daemons are stopped.
func Run(c *core.Cluster, img *core.Image, job Job) (Result, error) {
	res, err := NewScenario(c).Ramp(job.Ramp).AddJob(img, job).Run()
	if err != nil {
		return Result{}, err
	}
	return res.Jobs[0].Result, nil
}
