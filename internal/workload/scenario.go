package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
	"ecarray/internal/stats"
)

// Scenario composes a whole experiment on one cluster: any number of
// concurrent Jobs (each bound to its own image and pool, closed-loop or
// open-loop), a phase timeline that windows the metrics, and mid-run
// fault/repair events (FailOSD, RestoreOSD with automatic backfill,
// StartRecovery, recovery-rate changes, gray faults).
// Everything runs on the cluster's deterministic simulation
// engine, so the same seed and scenario produce byte-identical results.
//
// Build a scenario with NewScenario and the chainable setters, then call
// Run once:
//
//	res, err := workload.NewScenario(c).
//	    AddJob(imgA, jobA).
//	    AddJob(imgB, jobB).
//	    Phase("healthy", time.Second).
//	    Phase("degraded", time.Second).
//	    At(time.Second, workload.FailOSD(3)).
//	    Run()
//
// Construction errors (bad jobs, unknown pools, out-of-range OSD ids) are
// deferred and reported by Run.
type Scenario struct {
	c      *core.Cluster
	jobs   []scenJob
	events []scheduledEvent
	phases []phaseDef
	ramp   time.Duration
	sample time.Duration
	qosDst *QoSReport
	err    error
}

type scenJob struct {
	img   *core.Image
	job   Job
	start time.Duration
}

type scheduledEvent struct {
	at time.Duration
	ev Event
}

type phaseDef struct {
	name string
	dur  time.Duration
}

// NewScenario starts an empty scenario on the cluster.
func NewScenario(c *core.Cluster) *Scenario { return &Scenario{c: c} }

func (s *Scenario) fail(format string, args ...any) *Scenario {
	if s.err == nil {
		s.err = fmt.Errorf("workload: "+format, args...)
	}
	return s
}

// AddJob attaches a job running against img from scenario start. Jobs run
// concurrently; each keeps its own random stream (Job.Seed), pacing and
// measurement window.
func (s *Scenario) AddJob(img *core.Image, job Job) *Scenario {
	return s.AddJobAt(0, img, job)
}

// AddJobAt attaches a job that starts start after scenario begin (its ramp
// and measurement window shift accordingly).
func (s *Scenario) AddJobAt(start time.Duration, img *core.Image, job Job) *Scenario {
	if start < 0 {
		return s.fail("job start must be non-negative")
	}
	if img == nil {
		return s.fail("job needs an image")
	}
	if job.Name == "" {
		job.Name = fmt.Sprintf("job%d", len(s.jobs))
	}
	s.jobs = append(s.jobs, scenJob{img: img, job: job, start: start})
	return s
}

// At schedules ev to fire t after scenario start.
func (s *Scenario) At(t time.Duration, ev Event) *Scenario {
	if t < 0 {
		return s.fail("event time must be non-negative")
	}
	if ev == nil {
		return s.fail("nil event")
	}
	s.events = append(s.events, scheduledEvent{at: t, ev: ev})
	return s
}

// Phase appends a named phase of the given duration to the timeline.
// Phases partition the scenario clock back to back from t=0; per-job
// results and cluster metrics are additionally windowed per phase. With no
// phases declared the whole run is one implicit "run" phase; if declared
// phases end before the scenario does, an implicit "tail" phase covers the
// rest.
func (s *Scenario) Phase(name string, dur time.Duration) *Scenario {
	if dur <= 0 {
		return s.fail("phase %q duration must be positive", name)
	}
	s.phases = append(s.phases, phaseDef{name: name, dur: dur})
	return s
}

// Ramp resets the cluster metrics d after scenario start, opening the
// cluster-side measurement window there (the FIO warm-up convention). Jobs
// keep their own per-job ramps for client-side counting. For clean phase
// accounting align the ramp with a phase boundary.
func (s *Scenario) Ramp(d time.Duration) *Scenario {
	if d < 0 {
		return s.fail("negative ramp")
	}
	s.ramp = d
	return s
}

// QoSReport is the per-tenant admission outcome of one scenario run:
// the whole-run counter delta plus one delta per phase (same boundaries
// as ScenarioResult.PhaseMetrics). All zero unless the cluster has an
// admission policy configured (core.Config.Admission) and jobs carry tenants.
type QoSReport struct {
	Total  core.QoSMetrics
	Phases []core.QoSMetrics
}

// CaptureQoS asks Run to fill dst with the per-tenant admission ledger,
// windowed at the same phase boundaries as the cluster metrics. The
// report lives outside ScenarioResult so the result's rendering — and
// the golden digests folded over it — is untouched whether or not QoS
// is in play.
func (s *Scenario) CaptureQoS(dst *QoSReport) *Scenario {
	if dst == nil {
		return s.fail("CaptureQoS needs a destination")
	}
	s.qosDst = dst
	return s
}

// PhaseInfo locates one phase on the scenario clock.
type PhaseInfo struct {
	Name  string
	Start time.Duration // offset from scenario start
	End   time.Duration
}

// RecoveryResult is the outcome of one StartRecovery event.
type RecoveryResult struct {
	Pool  string
	Start time.Duration // offsets from scenario start
	End   time.Duration
	Stats core.RecoveryStats
	Err   error
}

// BackfillResult is the outcome of one backfill pass: RestoreOSD runs one
// per pool that had divergent (backfilling) PGs after re-admission.
type BackfillResult struct {
	Pool  string
	OSD   int
	Start time.Duration // offsets from scenario start
	End   time.Duration
	Stats core.BackfillStats
	Err   error
}

// ScrubResult is the outcome of one deep-scrub pass a scenario event ran.
type ScrubResult struct {
	Pool  string
	Start time.Duration // offsets from scenario start
	End   time.Duration
	Stats core.ScrubStats
	Err   error
}

// InjectResult is the outcome of one latent-error injection a scenario
// event ran. Err is non-nil when the target object or shard position did
// not exist at firing time.
type InjectResult struct {
	Pool  string
	Obj   string
	Shard int
	At    time.Duration // offset from scenario start
	Err   error
}

// GrayOpResult is the outcome of one DegradeOSD or RestoreOSDHealth event.
// Err is non-nil when the cluster rejected the operation at firing time
// (e.g. the circuit breaker ejected the OSD between scheduling and firing).
type GrayOpResult struct {
	Op  string // "degrade-osd" or "restore-osd-health"
	OSD int
	At  time.Duration // offset from scenario start
	Err error
}

// JobResult is one job's outcome: the whole-run Result plus per-phase
// slices. Phase Results carry the job's client-side numbers for that phase
// window; their Metrics field holds the cluster-wide (not per-job) counter
// delta of the phase, shared by every job's slice of it.
type JobResult struct {
	Result
	Phases []Result
}

// ScenarioResult is everything one scenario run measured.
type ScenarioResult struct {
	// Jobs holds per-job results in AddJob order.
	Jobs []JobResult
	// Phases is the resolved phase timeline; PhaseMetrics[i] is the
	// cluster-side counter delta over Phases[i].
	Phases       []PhaseInfo
	PhaseMetrics []core.Metrics
	// Metrics covers the cluster-side measurement window (from the ramp
	// reset to scenario end).
	Metrics core.Metrics
	// Samples is the merged cluster time series, recorded when the
	// scenario's sample interval is set.
	Samples []Sample
	// Recoveries lists StartRecovery outcomes in completion order.
	Recoveries []RecoveryResult
	// Backfills lists the backfill passes RestoreOSD ran, in completion
	// order.
	Backfills []BackfillResult
	// Scrubs lists deep-scrub outcomes in completion order.
	Scrubs []ScrubResult
	// Injects lists latent-error injections in firing order.
	Injects []InjectResult
	// GrayOps lists DegradeOSD/RestoreOSDHealth outcomes in firing order.
	GrayOps []GrayOpResult
	// GrayMetrics is the cluster's tail-tolerance counter delta (timeouts,
	// retries, hedges, ejects) over the whole scenario; PhaseGray[i] is the
	// delta over Phases[i]. All zero unless gray faults were injected or
	// the tail-tolerant fetch path engaged.
	GrayMetrics core.GrayMetrics
	PhaseGray   []core.GrayMetrics
	// Events is the cluster event log (OSD failures/restores, recovery
	// lifecycle, throttle changes, gray-failure transitions) in firing
	// order.
	Events []core.ClusterEvent
	// Seconds is the scenario length in simulated seconds.
	Seconds float64
}

// Job returns the named job's result (nil if absent).
func (r *ScenarioResult) Job(name string) *JobResult {
	for i := range r.Jobs {
		if r.Jobs[i].Result.Job.Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// String renders a multi-line summary: one line per job, plus the event
// count.
func (r *ScenarioResult) String() string {
	out := fmt.Sprintf("scenario: %.2fs, %d job(s), %d phase(s), %d event(s)",
		r.Seconds, len(r.Jobs), len(r.Phases), len(r.Events))
	for i := range r.Jobs {
		out += "\n  " + r.Jobs[i].Result.String()
	}
	return out
}

// --- events ---

// Timeline is the validation context an Event sees at Run time: the
// cluster the scenario runs on, the instant the event fires, and the
// projected OSD state at that instant — the initial out/degraded sets
// come from the cluster's current state and every earlier event's
// Validate folds its own effect in. Events at the same instant validate
// in scheduling (At-call) order, matching how they fire.
type Timeline struct {
	cluster  *core.Cluster
	at       time.Duration
	out      map[int]bool
	degraded map[int]bool
}

// newTimeline seeds the projected OSD state from the cluster, so acting
// on an OSD failed or degraded before the scenario was built stays valid.
func newTimeline(c *core.Cluster) *Timeline {
	tl := &Timeline{cluster: c, out: map[int]bool{}, degraded: map[int]bool{}}
	for _, o := range c.OSDs() {
		if !o.Up() {
			tl.out[o.ID] = true
		}
		if c.OSDHealth(o.ID).Degraded {
			tl.degraded[o.ID] = true
		}
	}
	return tl
}

// checkOSD validates an OSD id against the cluster size.
func (tl *Timeline) checkOSD(what string, id int) error {
	if id < 0 || id >= len(tl.cluster.OSDs()) {
		return fmt.Errorf("workload: %s(%d): cluster has %d OSDs", what, id, len(tl.cluster.OSDs()))
	}
	return nil
}

// checkPool validates a pool name against the cluster.
func (tl *Timeline) checkPool(what, pool string) error {
	if tl.cluster.Pool(pool) == nil {
		return fmt.Errorf("workload: %s: no pool %q", what, pool)
	}
	return nil
}

// Event is a scheduled cluster action inside a scenario. Events are built
// with the constructors below (FailOSD, RestoreOSD, DegradeOSD,
// StartRecovery, SetRecoveryRate, ...) and scheduled with
// Scenario.At. Every event validates itself against the Timeline — the
// cluster plus the projected OSD state at its firing instant — in one
// time-ordered pass before anything runs, so sequences that would
// silently no-op or mix failure modes (restoring an OSD that is not out,
// degrading one that is) are rejected up front.
type Event interface {
	fmt.Stringer
	// Validate checks the event against the timeline at its firing
	// instant and folds its own state effect into the projection for the
	// events after it.
	Validate(tl *Timeline) error
	// run executes the event as a simulation process. Unexported: events
	// are built with this package's constructors.
	run(p *sim.Proc, r *scenarioRun)
}

type failOSD struct{ id int }

// FailOSD returns an event that marks OSD id out: it leaves placement and
// EC pools serve its PGs' reads by reconstruction (degraded mode, §IV-E).
func FailOSD(id int) Event { return failOSD{id} }

func (ev failOSD) String() string { return fmt.Sprintf("fail-osd(%d)", ev.id) }
func (ev failOSD) Validate(tl *Timeline) error {
	if err := tl.checkOSD("FailOSD", ev.id); err != nil {
		return err
	}
	tl.out[ev.id] = true
	return nil
}
func (ev failOSD) run(p *sim.Proc, r *scenarioRun) { r.c.MarkOSDOut(ev.id) }

type restoreOSD struct {
	id       int
	backfill bool
}

// RestoreOSD returns an event that marks OSD id back in and immediately
// backfills: shard positions whose objects diverged while the OSD was out
// come back `backfilling` (served by reconstruction around them), and a
// backfill pass — paced by each pool's recovery rate — re-syncs the
// divergent objects and flips the positions clean. One BackfillResult per
// affected pool lands in ScenarioResult.Backfills. Scenario validation
// rejects restoring an OSD that is not out at that point of the timeline.
func RestoreOSD(id int) Event { return restoreOSD{id: id, backfill: true} }

func (ev restoreOSD) String() string {
	if !ev.backfill {
		return fmt.Sprintf("restore-osd-no-backfill(%d)", ev.id)
	}
	return fmt.Sprintf("restore-osd(%d)", ev.id)
}
func (ev restoreOSD) Validate(tl *Timeline) error {
	if err := tl.checkOSD("RestoreOSD", ev.id); err != nil {
		return err
	}
	if !tl.out[ev.id] {
		return fmt.Errorf("workload: %s at %v: osd%d is not out at that point in the timeline",
			ev, tl.at, ev.id)
	}
	delete(tl.out, ev.id)
	return nil
}
func (ev restoreOSD) run(p *sim.Proc, r *scenarioRun) {
	r.c.MarkOSDIn(ev.id)
	if !ev.backfill {
		return
	}
	for _, pl := range r.c.Pools() {
		if pl.Backfilling() == 0 {
			continue
		}
		bf := BackfillResult{Pool: pl.Name(), OSD: ev.id, Start: r.rel(p.Now())}
		bf.Stats, bf.Err = pl.Backfill(p)
		bf.End = r.rel(p.Now())
		r.backfills = append(r.backfills, bf)
	}
}

type degradeOSD struct {
	id  int
	deg core.OSDDegradation
}

// DegradeOSD returns an event that installs gray-fault injection on OSD id:
// the device serves slowly/stuck/faulted per deg.Device and the host's
// private-network latency stretches per deg.NetLatencyMultiplier, while the
// OSD stays up and in placement — the degraded-but-alive failure mode
// between healthy and fail-stop. Scenario validation rejects degrading an
// OSD that is out at that point of the timeline (fail-stop and gray failure
// are distinct states). The outcome lands in ScenarioResult.GrayOps.
func DegradeOSD(id int, deg core.OSDDegradation) Event { return degradeOSD{id: id, deg: deg} }

func (ev degradeOSD) String() string { return fmt.Sprintf("degrade-osd(%d)", ev.id) }
func (ev degradeOSD) Validate(tl *Timeline) error {
	if err := tl.checkOSD("DegradeOSD", ev.id); err != nil {
		return err
	}
	if !ev.deg.Active() {
		return fmt.Errorf("workload: DegradeOSD(%d): degradation has no active knobs", ev.id)
	}
	if ev.deg.NetLatencyMultiplier < 0 {
		return fmt.Errorf("workload: DegradeOSD(%d): negative net latency multiplier", ev.id)
	}
	if tl.out[ev.id] {
		return fmt.Errorf("workload: %s at %v: osd%d is out at that point in the timeline (restore it first)",
			ev, tl.at, ev.id)
	}
	tl.degraded[ev.id] = true
	return nil
}
func (ev degradeOSD) run(p *sim.Proc, r *scenarioRun) {
	r.grayOps = append(r.grayOps, GrayOpResult{
		Op:  "degrade-osd",
		OSD: ev.id,
		At:  r.rel(p.Now()),
		Err: r.c.DegradeOSD(ev.id, ev.deg),
	})
}

type restoreOSDHealth struct{ id int }

// RestoreOSDHealth returns an event that clears OSD id's gray-fault
// injection. If the circuit breaker had auto-ejected the OSD it re-admits
// through the probation window (GrayConfig.Probation) and a backfill pass.
// Scenario validation rejects restoring the health of an OSD no earlier
// event degraded. The outcome lands in ScenarioResult.GrayOps.
func RestoreOSDHealth(id int) Event { return restoreOSDHealth{id: id} }

func (ev restoreOSDHealth) String() string { return fmt.Sprintf("restore-osd-health(%d)", ev.id) }
func (ev restoreOSDHealth) Validate(tl *Timeline) error {
	if err := tl.checkOSD("RestoreOSDHealth", ev.id); err != nil {
		return err
	}
	if !tl.degraded[ev.id] {
		return fmt.Errorf("workload: %s at %v: osd%d is not degraded at that point in the timeline",
			ev, tl.at, ev.id)
	}
	delete(tl.degraded, ev.id)
	return nil
}
func (ev restoreOSDHealth) run(p *sim.Proc, r *scenarioRun) {
	r.grayOps = append(r.grayOps, GrayOpResult{
		Op:  "restore-osd-health",
		OSD: ev.id,
		At:  r.rel(p.Now()),
		Err: r.c.RestoreOSDHealth(ev.id),
	})
}

type startRecovery struct{ pool string }

// StartRecovery returns an event that launches a background repair pass on
// the named pool: missing shards/replicas are rebuilt onto replacement
// OSDs while foreground jobs keep running — the §IV-E contention the
// scenario API exists to measure. The outcome lands in
// ScenarioResult.Recoveries.
func StartRecovery(pool string) Event { return startRecovery{pool} }

func (ev startRecovery) String() string { return fmt.Sprintf("start-recovery(%s)", ev.pool) }
func (ev startRecovery) Validate(tl *Timeline) error {
	return tl.checkPool("StartRecovery", ev.pool)
}
func (ev startRecovery) run(p *sim.Proc, r *scenarioRun) {
	pl := r.c.Pool(ev.pool)
	rec := RecoveryResult{Pool: ev.pool, Start: r.rel(p.Now())}
	rec.Stats, rec.Err = pl.Recover(p)
	rec.End = r.rel(p.Now())
	r.recoveries = append(r.recoveries, rec)
}

type setRecoveryRate struct {
	pool string
	rate int64
}

// SetRecoveryRate returns an event that caps (or, with 0, uncaps) the
// named pool's background repair bandwidth in bytes/second of moved data.
// A running recovery picks the change up at its next object.
func SetRecoveryRate(pool string, bytesPerSec int64) Event {
	return setRecoveryRate{pool: pool, rate: bytesPerSec}
}

func (ev setRecoveryRate) String() string {
	return fmt.Sprintf("set-recovery-rate(%s, %d B/s)", ev.pool, ev.rate)
}
func (ev setRecoveryRate) Validate(tl *Timeline) error {
	return tl.checkPool("SetRecoveryRate", ev.pool)
}
func (ev setRecoveryRate) run(p *sim.Proc, r *scenarioRun) {
	r.c.Pool(ev.pool).SetRecoveryRate(ev.rate)
}

// --- runner ---

// jobState is one job's live accounting during a run.
type jobState struct {
	sj   scenJob
	hist *stats.Histogram

	ops, bytes, errs  int64
	readOps, writeOps int64
	cursor            int64 // sequential position shared by the job's workers
	rng               *rand.Rand
	zipf              *rand.Zipf
	payload           []byte
	blocks            int64
	measureStart      sim.Time // absolute: job start + job ramp
	windowEnd         sim.Time // absolute: measureStart + duration
	thr               *stats.Series
	samples           []Sample
	phaseHists        []*stats.Histogram
	phaseOps          []int64
	phaseBytes        []int64
	phaseReads        []int64
	phaseWrites       []int64
}

type scenarioRun struct {
	s     *Scenario
	c     *core.Cluster
	e     *sim.Engine
	start sim.Time // absolute scenario start
	end   sim.Time // absolute scenario end

	phases     []PhaseInfo
	snaps      []core.Metrics     // len(phases)+1 boundary snapshots
	graySnaps  []core.GrayMetrics // same boundaries, tail-tolerance counters
	qosSnaps   []core.QoSMetrics  // same boundaries, per-tenant admission ledger
	jobs       []*jobState
	mergedThr  *stats.Series
	samples    []Sample
	recoveries []RecoveryResult
	backfills  []BackfillResult
	scrubs     []ScrubResult
	injects    []InjectResult
	grayOps    []GrayOpResult
	events     []core.ClusterEvent
}

func (r *scenarioRun) rel(t sim.Time) time.Duration { return time.Duration(t - r.start) }

// phaseAt maps a scenario-clock offset to its phase index (clamped to the
// last phase for t at or past the end).
func (r *scenarioRun) phaseAt(t time.Duration) int {
	for i := range r.phases {
		if t < r.phases[i].End {
			return i
		}
	}
	return len(r.phases) - 1
}

// Run executes the scenario: all jobs concurrently, events on schedule,
// in-flight requests drained at the end. It owns the engine for the
// duration of the run and stops the cluster's background daemons when the
// window closes.
func (s *Scenario) Run() (*ScenarioResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.jobs) == 0 {
		return nil, errors.New("workload: scenario has no jobs")
	}
	for i := range s.jobs {
		if err := s.jobs[i].job.validate(s.jobs[i].img.Size()); err != nil {
			return nil, fmt.Errorf("job %q: %w", s.jobs[i].job.Name, err)
		}
		if s.jobs[i].img.Size()/s.jobs[i].job.BlockSize == 0 {
			return nil, fmt.Errorf("workload: job %q: image smaller than one block", s.jobs[i].job.Name)
		}
	}
	// One time-ordered validation pass: every event checks itself against
	// the projected cluster state at its firing instant (events at the
	// same instant validate in At-call order, matching how they fire).
	ordered := make([]scheduledEvent, len(s.events))
	copy(ordered, s.events)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].at < ordered[j].at })
	tl := newTimeline(s.c)
	for _, se := range ordered {
		tl.at = se.at
		if err := se.ev.Validate(tl); err != nil {
			return nil, err
		}
	}

	r := &scenarioRun{s: s, c: s.c, e: s.c.Engine()}
	r.start = r.e.Now()

	// Scenario end: the latest of job windows, declared phases and events.
	end := time.Duration(0)
	for _, sj := range s.jobs {
		if t := sj.start + sj.job.Ramp + sj.job.Duration; t > end {
			end = t
		}
	}
	var phaseSum time.Duration
	for _, ph := range s.phases {
		phaseSum += ph.dur
	}
	if phaseSum > end {
		end = phaseSum
	}
	for _, se := range s.events {
		if se.at > end {
			end = se.at
		}
	}
	r.end = r.start + sim.Time(end)

	// Resolve the phase timeline over [0, end).
	var cursor time.Duration
	for _, ph := range s.phases {
		r.phases = append(r.phases, PhaseInfo{Name: ph.name, Start: cursor, End: cursor + ph.dur})
		cursor += ph.dur
	}
	switch {
	case len(r.phases) == 0:
		r.phases = []PhaseInfo{{Name: "run", Start: 0, End: end}}
	case cursor < end:
		r.phases = append(r.phases, PhaseInfo{Name: "tail", Start: cursor, End: end})
	}
	r.snaps = make([]core.Metrics, len(r.phases)+1)
	r.graySnaps = make([]core.GrayMetrics, len(r.phases)+1)
	r.qosSnaps = make([]core.QoSMetrics, len(r.phases)+1)

	// Collect the cluster event log for the duration of the run.
	r.c.SetEventHook(func(ev core.ClusterEvent) {
		ev.Time -= time.Duration(r.start)
		r.events = append(r.events, ev)
	})
	defer r.c.SetEventHook(nil)

	// Spawn every job's load generators.
	for i := range s.jobs {
		r.jobs = append(r.jobs, r.startJob(&s.jobs[i], len(r.phases)))
	}

	// Open the cluster-side measurement window at the ramp.
	if s.ramp > 0 {
		r.e.Schedule(s.ramp, func() { r.c.ResetMetrics() })
	} else {
		r.c.ResetMetrics()
	}

	// Phase-boundary metric snapshots (the boundary at t=0 is taken after
	// the t=0 reset above; the one at end closes the last phase).
	for i := range r.phases {
		i := i
		r.e.Schedule(r.phases[i].Start, func() {
			r.snaps[i] = r.c.Metrics()
			r.graySnaps[i] = r.c.GrayMetrics()
			r.qosSnaps[i] = r.c.QoSMetrics()
		})
	}
	r.e.Schedule(end, func() {
		r.snaps[len(r.phases)] = r.c.Metrics()
		r.graySnaps[len(r.phases)] = r.c.GrayMetrics()
		r.qosSnaps[len(r.phases)] = r.c.QoSMetrics()
	})

	// Samplers: merged cluster series over the whole scenario, plus
	// per-job series ticking only while the job's own window is open.
	if s.sample > 0 {
		r.mergedThr = stats.NewSeries(s.sample)
		r.addSampler(s.sample, r.end, r.mergedThr, &r.samples)
	}
	for _, js := range r.jobs {
		if js.sj.job.SampleInterval > 0 {
			r.addSampler(js.sj.job.SampleInterval, js.windowEnd, js.thr, &js.samples)
		}
	}

	// Fault/repair events, each firing as its own simulation process.
	for _, se := range s.events {
		se := se
		r.e.Schedule(se.at, func() {
			r.e.Go("event/"+se.ev.String(), func(p *sim.Proc) { se.ev.run(p, r) })
		})
	}

	// Drive the run: load generators re-check the clock after each op, so
	// running past the end lets in-flight requests complete; once the
	// cluster's daemons stop everything drains naturally.
	r.e.RunUntil(r.end)
	r.c.Stop()
	r.e.Run()

	return r.collect(), nil
}

// startJob allocates a job's state and spawns its load generators
// (closed-loop workers, or an open-loop arrival dispatcher when Rate > 0).
func (r *scenarioRun) startJob(sj *scenJob, nphases int) *jobState {
	job := &sj.job
	js := &jobState{
		sj:           *sj,
		hist:         stats.NewHistogram(),
		blocks:       sj.img.Size() / job.BlockSize,
		rng:          sim.NewRand(job.Seed),
		measureStart: r.start + sim.Time(sj.start+job.Ramp),
		phaseHists:   make([]*stats.Histogram, nphases),
		phaseOps:     make([]int64, nphases),
		phaseBytes:   make([]int64, nphases),
		phaseReads:   make([]int64, nphases),
		phaseWrites:  make([]int64, nphases),
	}
	js.windowEnd = js.measureStart + sim.Time(job.Duration)
	for i := range js.phaseHists {
		js.phaseHists[i] = stats.NewHistogram()
	}
	if job.Zipf > 1 {
		js.zipf = rand.NewZipf(js.rng, job.Zipf, 1, uint64(js.blocks-1))
	}
	if job.SampleInterval > 0 {
		js.thr = stats.NewSeries(job.SampleInterval)
	}
	if r.c.Config().CarryData && job.Op != Read {
		js.payload = make([]byte, job.BlockSize)
		js.rng.Read(js.payload)
	}

	jobStart := r.start + sim.Time(js.sj.start)
	if job.Rate > 0 {
		r.e.GoNamed("fio/arrivals", job.Name, -1, func(p *sim.Proc) {
			r.dispatchOpenLoop(p, js, jobStart)
		})
		return js
	}
	for w := 0; w < job.QueueDepth; w++ {
		r.e.GoNamed("fio", job.Name, w, func(p *sim.Proc) {
			p.SleepUntil(jobStart)
			for p.Now() < js.windowEnd {
				off, op := r.nextOp(js)
				r.doOp(p, js, off, op)
			}
		})
	}
	return js
}

// nextOp draws the next request's offset and type from the job's random
// stream. Called in dispatch order, so the stream is deterministic for
// closed and open loops alike.
func (r *scenarioRun) nextOp(js *jobState) (off int64, op Op) {
	job := &js.sj.job
	switch {
	case job.Pattern == Sequential:
		off = (js.cursor % js.blocks) * job.BlockSize
		js.cursor++
	case js.zipf != nil:
		off = int64(js.zipf.Uint64()) * job.BlockSize
	default:
		off = js.rng.Int63n(js.blocks) * job.BlockSize
	}
	op = job.Op
	if op == Mixed {
		if js.rng.Intn(100) < job.MixRead {
			op = Read
		} else {
			op = Write
		}
	}
	return off, op
}

// doOp issues one block request and records its completion.
func (r *scenarioRun) doOp(p *sim.Proc, js *jobState, off int64, op Op) {
	job := &js.sj.job
	issued := p.Now()
	var err error
	if op == Write {
		err = js.sj.img.WriteFor(p, job.Tenant, off, js.payload, job.BlockSize)
	} else {
		_, err = js.sj.img.ReadFor(p, job.Tenant, off, job.BlockSize)
	}
	done := p.Now()
	if err != nil {
		js.errs++
		if done == issued {
			// The op failed without charging any virtual time (admission
			// rejection): pace the retry, or a closed-loop worker would
			// spin forever at the same instant.
			p.Sleep(time.Millisecond)
		}
		return
	}
	if done < js.measureStart || done > js.windowEnd {
		return
	}
	js.ops++
	js.bytes += job.BlockSize
	if op == Read {
		js.readOps++
	} else {
		js.writeOps++
	}
	lat := time.Duration(done - issued)
	js.hist.Observe(lat)
	ph := r.phaseAt(r.rel(done))
	js.phaseHists[ph].Observe(lat)
	js.phaseOps[ph]++
	js.phaseBytes[ph] += job.BlockSize
	if op == Read {
		js.phaseReads[ph]++
	} else {
		js.phaseWrites[ph]++
	}
	if js.thr != nil {
		js.thr.Add(r.rel(done), float64(job.BlockSize))
	}
	if r.mergedThr != nil {
		r.mergedThr.Add(r.rel(done), float64(job.BlockSize))
	}
}

// dispatchOpenLoop issues requests at the job's arrival process regardless
// of completions (FIO's rate_iops): each arrival runs as its own process,
// so queueing shows up as latency instead of throttled arrivals. Fixed
// pacing spaces arrivals exactly 1/Rate apart; Poisson draws exponential
// gaps with mean 1/Rate from the job's random stream. Offsets, op types
// and gaps are all drawn in arrival order by this single dispatcher, so
// the stream is deterministic at any codec concurrency.
func (r *scenarioRun) dispatchOpenLoop(p *sim.Proc, js *jobState, jobStart sim.Time) {
	job := &js.sj.job
	mean := float64(time.Second) / job.Rate
	interval := time.Duration(mean)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	p.SleepUntil(jobStart)
	seq := 0
	for p.Now() < js.windowEnd {
		off, op := r.nextOp(js)
		r.e.GoNamed("fio/arr", job.Name, seq, func(ap *sim.Proc) {
			r.doOp(ap, js, off, op)
		})
		seq++
		gap := interval
		if job.Arrival == ArrivalPoisson {
			gap = time.Duration(js.rng.ExpFloat64() * mean)
			if gap <= 0 {
				gap = time.Nanosecond
			}
		}
		p.Sleep(gap)
	}
}

// addSampler registers periodic cluster-side sampling until windowEnd;
// *out fills as the engine runs. Deltas are clamped at zero to absorb the
// counter reset at the ramp.
func (r *scenarioRun) addSampler(interval time.Duration, windowEnd sim.Time,
	thrSeries *stats.Series, out *[]Sample) {
	c, e, start := r.c, r.e, r.start
	type snap struct {
		user, kern float64
		ctx        int64
		priv       int64
		devR, devW int64
	}
	readCounters := func() snap {
		var sn snap
		for _, n := range c.Nodes() {
			u, k := n.CPU.BusySeconds()
			sn.user += u
			sn.kern += k
			sn.ctx += n.CPU.ContextSwitches()
		}
		sn.priv = c.PrivateNetwork().Bytes()
		for _, o := range c.OSDs() {
			ds := o.Store.Device().Stats()
			sn.devR += ds.HostReadBytes
			sn.devW += ds.HostWriteBytes
		}
		return sn
	}
	last := readCounters()
	cores := float64(len(c.Nodes()) * c.Nodes()[0].CPU.Cores())
	secs := interval.Seconds()
	var tick func()
	tick = func() {
		now := e.Now()
		if now > windowEnd {
			return
		}
		cur := readCounters()
		idx := int((now - start).Duration() / interval)
		var mbps float64
		if thrSeries != nil && idx > 0 {
			mbps = thrSeries.At(idx-1) / secs / (1 << 20)
		}
		pos := func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		}
		*out = append(*out, Sample{
			Second:      (now - start).Seconds(),
			MBps:        mbps,
			UserCPU:     pos((cur.user - last.user) / (secs * cores)),
			KernelCPU:   pos((cur.kern - last.kern) / (secs * cores)),
			CtxPerSec:   pos(float64(cur.ctx-last.ctx) / secs),
			PrivateRx:   pos(float64(cur.priv-last.priv) / secs),
			PrivateTx:   pos(float64(cur.priv-last.priv) / secs),
			DevReadBps:  pos(float64(cur.devR-last.devR) / secs),
			DevWriteBps: pos(float64(cur.devW-last.devW) / secs),
		})
		last = cur
		e.Schedule(interval, tick)
	}
	e.Schedule(interval, tick)
}

// collect assembles the ScenarioResult after the engine has drained. The
// cluster metrics come from the snapshot taken at scenario end, not from a
// post-drain read: recovery passes and in-flight requests that run past
// the end belong to the drain, not to the measurement window.
func (r *scenarioRun) collect() *ScenarioResult {
	res := &ScenarioResult{
		Phases:      r.phases,
		Metrics:     r.snaps[len(r.phases)],
		Samples:     r.samples,
		Recoveries:  r.recoveries,
		Backfills:   r.backfills,
		Scrubs:      r.scrubs,
		Injects:     r.injects,
		GrayOps:     r.grayOps,
		GrayMetrics: r.graySnaps[len(r.phases)].Sub(r.graySnaps[0]),
		Events:      r.events,
		Seconds:     r.rel(r.end).Seconds(),
	}
	for i := range r.phases {
		res.PhaseMetrics = append(res.PhaseMetrics, r.snaps[i+1].Since(r.snaps[i]))
		res.PhaseGray = append(res.PhaseGray, r.graySnaps[i+1].Sub(r.graySnaps[i]))
	}
	if r.s.qosDst != nil {
		*r.s.qosDst = QoSReport{Total: r.qosSnaps[len(r.phases)].Sub(r.qosSnaps[0])}
		for i := range r.phases {
			r.s.qosDst.Phases = append(r.s.qosDst.Phases, r.qosSnaps[i+1].Sub(r.qosSnaps[i]))
		}
	}
	for _, js := range r.jobs {
		job := js.sj.job
		total := Result{
			Job:         job,
			Ops:         js.ops,
			Bytes:       js.bytes,
			Seconds:     job.Duration.Seconds(),
			MeanLatency: js.hist.Mean(),
			P50Latency:  js.hist.Quantile(0.5),
			P99Latency:  js.hist.Quantile(0.99),
			MaxLatency:  js.hist.Max(),
			Metrics:     res.Metrics,
			Errors:      js.errs,
			ReadOps:     js.readOps,
			WriteOps:    js.writeOps,
		}
		if total.Seconds > 0 {
			total.MBps = float64(total.Bytes) / total.Seconds / (1 << 20)
			total.IOPS = float64(total.Ops) / total.Seconds
		}
		if job.SampleInterval > 0 {
			total.Samples = js.samples
		}
		jr := JobResult{Result: total}
		mStart := time.Duration(js.measureStart - r.start)
		mEnd := time.Duration(js.windowEnd - r.start)
		for i, ph := range r.phases {
			pr := Result{
				Job:         job,
				Ops:         js.phaseOps[i],
				Bytes:       js.phaseBytes[i],
				Seconds:     overlapSeconds(ph.Start, ph.End, mStart, mEnd),
				MeanLatency: js.phaseHists[i].Mean(),
				P50Latency:  js.phaseHists[i].Quantile(0.5),
				P99Latency:  js.phaseHists[i].Quantile(0.99),
				MaxLatency:  js.phaseHists[i].Max(),
				Metrics:     res.PhaseMetrics[i],
				ReadOps:     js.phaseReads[i],
				WriteOps:    js.phaseWrites[i],
			}
			if pr.Seconds > 0 {
				pr.MBps = float64(pr.Bytes) / pr.Seconds / (1 << 20)
				pr.IOPS = float64(pr.Ops) / pr.Seconds
			}
			jr.Phases = append(jr.Phases, pr)
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res
}

// overlapSeconds returns the length of [a0,a1) ∩ [b0,b1) in seconds.
func overlapSeconds(a0, a1, b0, b1 time.Duration) float64 {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return (hi - lo).Seconds()
}
