package bench

import (
	"fmt"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/ssd"
	"ecarray/internal/workload"
)

// Scenario experiments: the combination effects the paper discusses but a
// single closed-loop job cannot express — degraded reads while recovery
// runs (§IV-E), repair traffic throttling against foreground service, and
// mixed tenants across pools. All of them are built on the workload
// package's Scenario API, so they inherit its determinism: the same suite
// options produce byte-identical tables.
//
// ScenarioIDs lists the available experiments.
func ScenarioIDs() []string {
	return []string{"degraded-read", "recovery-interference", "mixed-tenants", "restore-backfill", "gray-failure", "qos-overload"}
}

// RunScenario executes one scenario experiment and returns its table. As
// with figures, calibrated runs stamp the table with the measured-codec
// provenance note.
func (s *Suite) RunScenario(id string) (Table, error) {
	t, err := s.runScenario(id)
	if err != nil {
		return Table{}, err
	}
	if s.Opt.CalibrateEncode {
		t.Notes = append(t.Notes, s.CalibrationNotes()...)
	}
	return t, nil
}

func (s *Suite) runScenario(id string) (Table, error) {
	switch id {
	case "degraded-read":
		return s.scenarioDegradedRead()
	case "recovery-interference":
		return s.scenarioRecoveryInterference()
	case "mixed-tenants":
		return s.scenarioMixedTenants()
	case "restore-backfill":
		return s.scenarioRestoreBackfill()
	case "gray-failure":
		return s.scenarioGrayFailure()
	case "qos-overload":
		return s.scenarioQoSOverload()
	}
	return Table{}, fmt.Errorf("bench: unknown scenario %q", id)
}

// RunAllScenarios executes every scenario experiment.
func (s *Suite) RunAllScenarios() ([]Table, error) {
	var out []Table
	for _, id := range ScenarioIDs() {
		t, err := s.RunScenario(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// scenarioPhase splits the suite duration into the three-phase timeline
// (healthy → degraded → recovering) the fault scenarios share.
func (s *Suite) scenarioPhase() time.Duration {
	ph := s.Opt.Duration / 3
	if ph < 50*time.Millisecond {
		ph = 50 * time.Millisecond
	}
	return ph
}

// failureScenario builds the shared shape: a foreground random-read job on
// a prefilled RS(6,3) image, two OSDs failing at the first phase boundary,
// recovery starting at the second. rate > 0 throttles the repair pass.
func (s *Suite) failureScenario(salt int64, rate int64) (*workload.ScenarioResult, error) {
	started := time.Now()
	sc := Scheme{"RS(6,3)", core.ProfileEC(6, 3)}
	c, img, err := s.clusterFor(sc, salt)
	if err != nil {
		return nil, err
	}
	img.Prefill()
	ph := s.scenarioPhase()
	b := workload.NewScenario(c).
		AddJob(img, workload.Job{
			Name: "fg", Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, QueueDepth: s.Opt.QueueDepth,
			Duration: 3 * ph, Seed: s.Opt.Seed,
		}).
		Phase("healthy", ph).
		Phase("degraded", ph).
		Phase("recovering", ph).
		At(ph, workload.FailOSD(0)).
		At(ph, workload.FailOSD(7)).
		At(2*ph, workload.StartRecovery("data"))
	if rate > 0 {
		b.At(2*ph, workload.SetRecoveryRate("data", rate))
	}
	res, err := b.Run()
	if err != nil {
		return nil, err
	}
	s.drainAndNote(c.Engine(), started)
	return res, nil
}

// scenarioDegradedRead reproduces the §IV-E observation: EC reads already
// pay reconstruction-shaped costs online, so failing OSDs moves every
// per-request metric — latency up, device reads and private traffic per
// byte up — and overlapping recovery stacks repair traffic on top.
func (s *Suite) scenarioDegradedRead() (Table, error) {
	res, err := s.failureScenario(41, 0)
	if err != nil {
		return Table{}, err
	}
	fg := res.Job("fg")
	t := Table{
		ID:    "scenario-degraded-read",
		Title: "Degraded 4KB random reads across failure and recovery, RS(6,3) (paper §IV-E)",
		Columns: []string{"phase", "MB/s", "lat ms", "p99 ms",
			"dev-read/req", "privnet/req"},
	}
	for i, pr := range fg.Phases {
		m := res.PhaseMetrics[i]
		devPerReq, netPerReq := 0.0, 0.0
		if pr.Bytes > 0 {
			devPerReq = float64(m.DeviceReadBytes) / float64(pr.Bytes)
			netPerReq = float64(m.PrivateBytes) / float64(pr.Bytes)
		}
		t.Rows = append(t.Rows, []string{
			res.Phases[i].Name, f1(pr.MBps), f2(ms(pr.MeanLatency)), f2(ms(pr.P99Latency)),
			f2(devPerReq), f2(netPerReq),
		})
	}
	t.Notes = append(t.Notes,
		"degraded reads reconstruct from k surviving chunks; the recovering phase adds repair pulls on top",
		fmt.Sprintf("%d cluster events logged; recovery moved %.1f MiB",
			len(res.Events), movedMiB(res)))
	return t, nil
}

// scenarioRecoveryInterference sweeps the recovery throttle: unthrottled
// repair finishes fastest but collapses foreground throughput; capping the
// repair rate trades recovery time for service quality — the operational
// knob Ceph tunes for exactly this contention.
func (s *Suite) scenarioRecoveryInterference() (Table, error) {
	t := Table{
		ID:    "scenario-recovery-interference",
		Title: "Foreground 4KB random reads vs background repair rate, RS(6,3)",
		Columns: []string{"recovery rate", "healthy MB/s", "degraded MB/s",
			"recovering MB/s", "repair time", "repair MiB"},
	}
	// One fixed salt for every row: the simulator is deterministic, so the
	// healthy/degraded baselines stay identical and only the swept rate
	// moves the recovering column.
	for _, rate := range []int64{0, 256 << 20, 64 << 20} {
		res, err := s.failureScenario(43, rate)
		if err != nil {
			return Table{}, err
		}
		fg := res.Job("fg")
		label := "unthrottled"
		if rate > 0 {
			label = fmt.Sprintf("%d MiB/s", rate>>20)
		}
		repair := "-"
		if len(res.Recoveries) > 0 {
			repair = res.Recoveries[0].Stats.DurationSimulated.Round(time.Millisecond).String()
		}
		t.Rows = append(t.Rows, []string{
			label,
			f1(fg.Phases[0].MBps), f1(fg.Phases[1].MBps), f1(fg.Phases[2].MBps),
			repair, f1(movedMiB(res)),
		})
	}
	t.Notes = append(t.Notes,
		"unthrottled repair competes with foreground reads for OSDs and the private network; a cap restores service at the cost of a longer repair window")
	return t, nil
}

// scenarioMixedTenants runs a replicated tenant and an EC tenant against
// the same cluster concurrently: the paper's scheme comparison, but
// sharing hardware instead of measured back to back.
func (s *Suite) scenarioMixedTenants() (Table, error) {
	started := time.Now()
	sc := Scheme{"3-Rep", core.ProfileReplicated(3)}
	c, repImg, err := s.clusterFor(sc, 47)
	if err != nil {
		return Table{}, err
	}
	if _, err := c.CreatePool("ec", core.ProfileEC(6, 3)); err != nil {
		return Table{}, err
	}
	ecImg, err := c.CreateImage("ec", "tenant-ec", s.Opt.ImageSize)
	if err != nil {
		return Table{}, err
	}
	repImg.Prefill()
	ecImg.Prefill()
	res, err := workload.NewScenario(c).
		AddJob(repImg, workload.Job{
			Name: "rep-tenant", Op: workload.Mixed, MixRead: 70, Pattern: workload.Random,
			BlockSize: 4 << 10, QueueDepth: s.Opt.QueueDepth / 2,
			Duration: s.Opt.Duration, Seed: s.Opt.Seed,
		}).
		AddJob(ecImg, workload.Job{
			Name: "ec-tenant", Op: workload.Mixed, MixRead: 70, Pattern: workload.Random,
			BlockSize: 4 << 10, QueueDepth: s.Opt.QueueDepth / 2,
			Duration: s.Opt.Duration, Seed: s.Opt.Seed + 1,
		}).
		Run()
	if err != nil {
		return Table{}, err
	}
	s.drainAndNote(c.Engine(), started)
	t := Table{
		ID:      "scenario-mixed-tenants",
		Title:   "Mixed tenants sharing one cluster: 3-Rep vs RS(6,3), 70/30 4KB random",
		Columns: []string{"tenant", "MB/s", "IOPS", "lat ms", "p99 ms", "read ops", "write ops"},
	}
	for _, name := range []string{"rep-tenant", "ec-tenant"} {
		jr := res.Job(name)
		t.Rows = append(t.Rows, []string{
			name, f1(jr.Result.MBps), fmt.Sprintf("%.0f", jr.Result.IOPS),
			f2(ms(jr.Result.MeanLatency)), f2(ms(jr.Result.P99Latency)),
			fmt.Sprint(jr.Result.ReadOps), fmt.Sprint(jr.Result.WriteOps),
		})
	}
	t.Notes = append(t.Notes,
		"both tenants contend for the same OSDs, cores and networks; EC's per-request fan-out taxes the replicated tenant too")
	return t, nil
}

// scenarioRestoreBackfill exercises the transient-failure path: an OSD
// drops out while a mixed workload keeps writing, then comes back with its
// old (now stale) shard contents. Re-admission marks the divergent
// positions backfilling and a paced backfill re-syncs only the objects
// written during the outage — the log-based recovery Ceph prefers over
// whole-PG rebuilds for short outages.
func (s *Suite) scenarioRestoreBackfill() (Table, error) {
	started := time.Now()
	sc := Scheme{"RS(6,3)", core.ProfileEC(6, 3)}
	c, img, err := s.clusterFor(sc, 53)
	if err != nil {
		return Table{}, err
	}
	img.Prefill()
	ph := s.scenarioPhase()
	res, err := workload.NewScenario(c).
		AddJob(img, workload.Job{
			Name: "fg", Op: workload.Mixed, MixRead: 50, Pattern: workload.Random,
			BlockSize: 16 << 10, QueueDepth: s.Opt.QueueDepth,
			Duration: 3 * ph, Seed: s.Opt.Seed,
		}).
		Phase("healthy", ph).
		Phase("outage", ph).
		Phase("restored", ph).
		At(ph, workload.FailOSD(2)).
		At(2*ph, workload.SetRecoveryRate("data", 256<<20)).
		At(2*ph, workload.RestoreOSD(2)).
		Run()
	if err != nil {
		return Table{}, err
	}
	s.drainAndNote(c.Engine(), started)
	fg := res.Job("fg")
	t := Table{
		ID:    "scenario-restore-backfill",
		Title: "Transient OSD outage with writes, restore + paced backfill, RS(6,3)",
		Columns: []string{"phase", "MB/s", "lat ms", "p99 ms",
			"read ops", "write ops"},
	}
	for i, pr := range fg.Phases {
		t.Rows = append(t.Rows, []string{
			res.Phases[i].Name, f1(pr.MBps), f2(ms(pr.MeanLatency)), f2(ms(pr.P99Latency)),
			fmt.Sprint(pr.ReadOps), fmt.Sprint(pr.WriteOps),
		})
	}
	for _, bf := range res.Backfills {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"backfill (pool %s): %d PGs, %d objects re-synced, %.1f MiB restored in %v",
			bf.Pool, bf.Stats.PGsBackfilled, bf.Stats.ObjectsSynced,
			float64(bf.Stats.BytesRestored)/(1<<20),
			bf.Stats.DurationSimulated.Round(time.Millisecond)))
	}
	t.Notes = append(t.Notes,
		"only objects written during the outage move; untouched PGs flip clean at re-admission with no data motion")
	return t, nil
}

// grayFailureRun runs the gray lifecycle once — healthy, then one OSD
// serving at 10× device latency, then a health restore — with or without
// the tail-tolerance knobs (per-shard deadlines, hedged reads, the health
// breaker). The victim is the primary of the image's first object, so the
// foreground job is guaranteed to touch it.
func (s *Suite) grayFailureRun(tolerant bool) (*workload.ScenarioResult, error) {
	started := time.Now()
	sc := Scheme{"RS(6,3)", core.ProfileEC(6, 3)}
	cfg := s.baseConfig(s.Opt.Seed + 59)
	if tolerant {
		cfg.Gray = core.DefaultGrayConfig()
	}
	s.applyCodecConfig(&cfg, sc.Profile)
	c, img, err := s.clusterWith(cfg, sc.Profile)
	if err != nil {
		return nil, err
	}
	img.Prefill()
	victim := c.Pool("data").ActingSet(img.ObjectName(0))[0]
	ph := s.scenarioPhase()
	res, err := workload.NewScenario(c).
		AddJob(img, workload.Job{
			Name: "fg", Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, QueueDepth: s.Opt.QueueDepth,
			Duration: 3 * ph, Seed: s.Opt.Seed,
		}).
		Phase("healthy", ph).
		Phase("gray", ph).
		Phase("recovered", ph).
		At(ph, workload.DegradeOSD(victim, core.OSDDegradation{
			Device: ssd.Degradation{LatencyMultiplier: 10},
		})).
		At(2*ph, workload.RestoreOSDHealth(victim)).
		Run()
	if err != nil {
		return nil, err
	}
	s.drainAndNote(c.Engine(), started)
	return res, nil
}

// scenarioGrayFailure contrasts the same gray fault with and without tail
// tolerance: a fail-stop detector never fires for a slow-but-alive OSD, so
// the unprotected run eats the full 10× latency for the whole gray phase,
// while the tolerant run bounds read tails with deadlines and hedges and
// the health breaker ejects the victim outright.
func (s *Suite) scenarioGrayFailure() (Table, error) {
	tol, err := s.grayFailureRun(true)
	if err != nil {
		return Table{}, err
	}
	raw, err := s.grayFailureRun(false)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "scenario-gray-failure",
		Title: "Gray failure: one OSD at 10x device latency, 4KB random reads, RS(6,3)",
		Columns: []string{"mode", "phase", "MB/s", "lat ms", "p99 ms",
			"timeouts", "hedges", "ejects"},
	}
	for _, mode := range []struct {
		name string
		res  *workload.ScenarioResult
	}{{"tail-tolerant", tol}, {"unprotected", raw}} {
		fg := mode.res.Job("fg")
		for i, pr := range fg.Phases {
			g := mode.res.PhaseGray[i]
			t.Rows = append(t.Rows, []string{
				mode.name, mode.res.Phases[i].Name,
				f1(pr.MBps), f2(ms(pr.MeanLatency)), f2(ms(pr.P99Latency)),
				fmt.Sprint(g.ShardTimeouts), fmt.Sprint(g.HedgesIssued), fmt.Sprint(g.Ejects),
			})
		}
	}
	p99Ratio := func(res *workload.ScenarioResult) float64 {
		fg := res.Job("fg")
		if h := ms(fg.Phases[0].P99Latency); h > 0 {
			return ms(fg.Phases[1].P99Latency) / h
		}
		return 0
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("gray-phase read p99 vs healthy: %.1fx tail-tolerant, %.1fx unprotected",
			p99Ratio(tol), p99Ratio(raw)),
		fmt.Sprintf("tolerant run: %d shard timeouts, %d hedges (%d won), %d eject(s), %d readmit(s); the unprotected run never detects the slow OSD",
			tol.GrayMetrics.ShardTimeouts, tol.GrayMetrics.HedgesIssued,
			tol.GrayMetrics.HedgesWon, tol.GrayMetrics.Ejects, tol.GrayMetrics.Readmits))
	return t, nil
}

// movedMiB totals the repair bytes moved across a result's recoveries.
func movedMiB(res *workload.ScenarioResult) float64 {
	var b int64
	for _, r := range res.Recoveries {
		b += r.Stats.BytesPulled + r.Stats.BytesRebuilt
	}
	return float64(b) / (1 << 20)
}
