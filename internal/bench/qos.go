package bench

import (
	"fmt"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/qos"
	"ecarray/internal/sim"
	"ecarray/internal/workload"
)

// The qos-overload scenario: three tenants with 3:2:1 weights, each on its
// own pool (3-Rep, RS(6,3), RS(10,4)), driving open-loop load that ramps
// from 50% of the calibrated per-tenant capacity to 120% of it, with an
// OSD failure landing mid-overload. Run twice — once under a weighted-fair
// admission policy, once unlimited — the contrast is the point: fairness
// keeps the high-weight tenant's p99 near its healthy baseline by shedding
// the excess (every rejection carrying an auditable DecisionTrace), while
// the unlimited run lets the backlog grow and every tenant's tail with it.

// qosTenant binds one tenant to its weight and pool scheme.
type qosTenant struct {
	name   string
	weight float64
	scheme Scheme
}

func qosTenants() []qosTenant {
	return []qosTenant{
		{"gold", 3, Scheme{"3-Rep", core.ProfileReplicated(3)}},
		{"silver", 2, Scheme{"RS(6,3)", core.ProfileEC(6, 3)}},
		{"bronze", 1, Scheme{"RS(10,4)", core.ProfileEC(10, 4)}},
	}
}

// qosFairPolicy builds the weighted-fair admission policy over the tenant
// weights with the given total inflight limit.
func qosFairPolicy(limit int) qos.AdmissionPolicy {
	weights := map[string]float64{}
	for _, t := range qosTenants() {
		weights[t.name] = t.weight
	}
	return qos.NewWeightedFair(limit, weights)
}

// qosFairLimit sizes the fair policy's total inflight budget: a fraction
// of the suite queue depth, so admitted ops queue shallowly and the
// high-weight tenant's latency stays near its uncontended baseline.
func (s *Suite) qosFairLimit() int {
	limit := s.Opt.QueueDepth / 8
	if limit < 12 {
		limit = 12
	}
	return limit
}

// qosCluster builds the shared three-pool cluster (one pool + prefilled
// image per tenant) with the given admission policy installed.
func (s *Suite) qosCluster(admission qos.AdmissionPolicy) (*core.Cluster, map[string]*core.Image, error) {
	cfg := s.baseConfig(s.Opt.Seed + 61)
	s.applyCodecConfig(&cfg, core.ProfileEC(6, 3))
	cfg.Admission = admission
	c, err := core.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, nil, err
	}
	imgs := map[string]*core.Image{}
	for _, t := range qosTenants() {
		if _, err := c.CreatePool(t.name, t.scheme.Profile); err != nil {
			return nil, nil, err
		}
		img, err := c.CreateImage(t.name, "vol-"+t.name, s.Opt.ImageSize)
		if err != nil {
			return nil, nil, err
		}
		img.Prefill()
		imgs[t.name] = img
	}
	return c, imgs, nil
}

// qosCapacity calibrates each tenant's sustainable read IOPS: a short
// closed-loop probe on all three pools concurrently (no admission
// control), so the measured capacity already reflects cross-pool
// contention for OSDs, cores and networks.
func (s *Suite) qosCapacity() (map[string]float64, error) {
	started := time.Now()
	c, imgs, err := s.qosCluster(qos.Unlimited{})
	if err != nil {
		return nil, err
	}
	qd := s.Opt.QueueDepth / 3
	if qd < 4 {
		qd = 4
	}
	b := workload.NewScenario(c)
	for i, t := range qosTenants() {
		b.AddJob(imgs[t.name], workload.Job{
			Name: t.name, Tenant: t.name, Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, QueueDepth: qd,
			Duration: s.scenarioPhase(), Seed: s.Opt.Seed + int64(i),
		})
	}
	res, err := b.Run()
	if err != nil {
		return nil, err
	}
	s.drainAndNote(c.Engine(), started)
	caps := map[string]float64{}
	for _, t := range qosTenants() {
		iops := res.Job(t.name).Result.IOPS
		if iops < 100 {
			iops = 100 // floor: keep the open-loop rates meaningful
		}
		caps[t.name] = iops
	}
	return caps, nil
}

// qosOverloadArm is one run of the overload timeline under one policy.
type qosOverloadArm struct {
	name   string
	res    *workload.ScenarioResult
	report workload.QoSReport
	traces []qos.DecisionTrace
}

// qosOverloadRun drives the three-phase timeline under the given policy:
// every tenant runs a steady open-loop job at 50% of its calibrated
// capacity for all three phases, plus a surge job adding another 70% from
// the overload boundary on (120% aggregate), and one OSD of the silver
// pool fails at the failure boundary while the overload continues.
func (s *Suite) qosOverloadRun(name string, admission qos.AdmissionPolicy,
	caps map[string]float64) (*qosOverloadArm, error) {
	started := time.Now()
	c, imgs, err := s.qosCluster(admission)
	if err != nil {
		return nil, err
	}
	ph := s.scenarioPhase()
	victim := c.Pool("silver").ActingSet(imgs["silver"].ObjectName(0))[0]
	var qr workload.QoSReport
	b := workload.NewScenario(c).
		Phase("healthy", ph).
		Phase("overload", ph).
		Phase("failure", ph).
		At(2*ph, workload.FailOSD(victim)).
		CaptureQoS(&qr)
	for i, t := range qosTenants() {
		b.AddJob(imgs[t.name], workload.Job{
			Name: t.name + "-base", Tenant: t.name, Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, Rate: 0.5 * caps[t.name],
			Duration: 3 * ph, Seed: s.Opt.Seed + int64(i),
		})
		b.AddJobAt(ph, imgs[t.name], workload.Job{
			Name: t.name + "-surge", Tenant: t.name, Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, Rate: 0.7 * caps[t.name],
			Duration: 2 * ph, Seed: s.Opt.Seed + 10 + int64(i),
		})
	}
	res, err := b.Run()
	if err != nil {
		return nil, err
	}
	s.drainAndNote(c.Engine(), started)
	return &qosOverloadArm{name: name, res: res, report: qr, traces: c.QoSRejectTraces()}, nil
}

// p99Ratio returns one tenant's overload-phase read p99 over its
// healthy-phase p99 (0 when the healthy phase recorded none) — the
// isolation figure of merit: under a fair policy it stays near 1, under
// unlimited admission the backlog pushes it up without bound.
func (a *qosOverloadArm) p99Ratio(tenant string) float64 {
	jr := a.res.Job(tenant + "-base")
	if jr == nil || len(jr.Phases) < 2 {
		return 0
	}
	healthy := ms(jr.Phases[0].P99Latency)
	if healthy <= 0 {
		return 0
	}
	return ms(jr.Phases[1].P99Latency) / healthy
}

// scenarioQoSOverload runs the two arms and renders the comparison.
func (s *Suite) scenarioQoSOverload() (Table, error) {
	caps, err := s.qosCapacity()
	if err != nil {
		return Table{}, err
	}
	fair, err := s.qosOverloadRun("weighted-fair", qosFairPolicy(s.qosFairLimit()), caps)
	if err != nil {
		return Table{}, err
	}
	unlim, err := s.qosOverloadRun("unlimited", qos.Unlimited{}, caps)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "scenario-qos-overload",
		Title: "Multi-tenant overload: 3 tenants (3:2:1 weights) ramped to 120% capacity, weighted-fair vs unlimited admission",
		Columns: []string{"policy", "tenant", "phase", "goodput IOPS",
			"p50 ms", "p99 ms", "admitted", "rejected"},
	}
	for _, arm := range []*qosOverloadArm{fair, unlim} {
		for _, tn := range qosTenants() {
			base := arm.res.Job(tn.name + "-base")
			surge := arm.res.Job(tn.name + "-surge")
			for i, ph := range arm.res.Phases {
				ops := base.Phases[i].Ops + surge.Phases[i].Ops
				goodput := 0.0
				if secs := (ph.End - ph.Start).Seconds(); secs > 0 {
					goodput = float64(ops) / secs
				}
				tq := arm.report.Phases[i].Tenant(tn.name)
				t.Rows = append(t.Rows, []string{
					arm.name, tn.name, ph.Name,
					fmt.Sprintf("%.0f", goodput),
					f2(ms(base.Phases[i].P50Latency)), f2(ms(base.Phases[i].P99Latency)),
					fmt.Sprint(tq.Admitted), fmt.Sprint(tq.Rejected),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("calibrated capacity: gold %.0f, silver %.0f, bronze %.0f IOPS (closed-loop probe, all pools concurrent)",
			caps["gold"], caps["silver"], caps["bronze"]),
		fmt.Sprintf("gold overload p99 vs healthy: %.1fx weighted-fair, %.1fx unlimited (fair admission sheds excess load instead of queueing it)",
			fair.p99Ratio("gold"), unlim.p99Ratio("gold")),
		fmt.Sprintf("weighted-fair rejected %d ops, every one with a retained DecisionTrace (%d in the audit ring)",
			fair.report.Total.Total().Rejected, len(fair.traces)))
	return t, nil
}
