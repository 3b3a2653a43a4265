package bench

import (
	"fmt"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/workload"
)

// Ablations isolate the mechanisms the cost model is built from (`ecbench
// -ablations`, README "ecbench scales and modes"): each experiment
// switches one mechanism off (or sweeps one parameter) and reports how a
// headline metric moves, demonstrating that the reproduced behaviour comes
// from the modeled mechanism and not from an unrelated artifact.
//
// AblationIDs lists the available experiments.
func AblationIDs() []string {
	return []string{"stripe-width", "stripe-cache", "wal", "client-cap", "pg-count"}
}

// RunAblation executes one ablation and returns its table. As with
// figures, calibrated runs stamp the table with the measured-codec
// provenance note.
func (s *Suite) RunAblation(id string) (Table, error) {
	t, err := s.runAblation(id)
	if err != nil {
		return Table{}, err
	}
	if s.Opt.CalibrateEncode {
		t.Notes = append(t.Notes, s.CalibrationNotes()...)
	}
	return t, nil
}

func (s *Suite) runAblation(id string) (Table, error) {
	switch id {
	case "stripe-width":
		return s.ablateStripeWidth()
	case "stripe-cache":
		return s.ablateStripeCache()
	case "wal":
		return s.ablateWAL()
	case "client-cap":
		return s.ablateClientCap()
	case "pg-count":
		return s.ablatePGCount()
	}
	return Table{}, fmt.Errorf("bench: unknown ablation %q", id)
}

// RunAllAblations executes every ablation.
func (s *Suite) RunAllAblations() ([]Table, error) {
	var out []Table
	for _, id := range AblationIDs() {
		t, err := s.RunAblation(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ablationRun builds a cluster with the mutation applied and runs one job.
// Every run of an ablation shares the suite seed, so a row differs from
// the next only by the mechanism it switches.
func (s *Suite) ablationRun(profile core.Profile, mutate func(*core.Config),
	job workload.Job, prefill bool) (CellReport, error) {
	started := time.Now()
	cfg := s.baseConfig(s.Opt.Seed)
	s.applyCodecConfig(&cfg, profile)
	if mutate != nil {
		mutate(&cfg)
	}
	c, img, err := s.clusterWith(cfg, profile, "ablate")
	if err != nil {
		return CellReport{}, err
	}
	if prefill {
		img.Prefill()
	}
	job.QueueDepth = s.Opt.QueueDepth
	job.Duration = s.Opt.Duration
	job.Seed = s.Opt.Seed
	res, err := workload.Run(c, img, job)
	if err != nil {
		return CellReport{}, err
	}
	s.drainAndNote(c.Engine(), started)
	return newCellReport(res), nil
}

// ablateStripeWidth sweeps the EC stripe unit. The paper's §VIII notes that
// increasing the stripe width almost linearly increases encoding and
// decoding latency; here a larger unit multiplies the data a sub-stripe
// write must read, encode and rewrite.
func (s *Suite) ablateStripeWidth() (Table, error) {
	t := Table{
		ID:      "ablation-stripe-width",
		Title:   "Stripe-unit sweep, RS(6,3) 4KB random writes (paper §VIII discussion)",
		Columns: []string{"stripe unit", "stripe width", "MB/s", "lat ms", "dev-write/req"},
	}
	for _, unit := range []int64{4 << 10, 8 << 10, 16 << 10} {
		unit := unit
		cell, err := s.ablationRun(core.ProfileEC(6, 3), func(c *core.Config) {
			c.StripeUnit = unit
		}, workload.Job{
			Name: "ablate-su", Op: workload.Write, Pattern: workload.Random, BlockSize: 4 << 10,
		}, false)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			bsLabel(unit), bsLabel(6 * unit),
			f1(cell.MBps), f2(cell.MeanLatencyUS / 1e3), f2(cell.DevWritePerReq),
		})
	}
	t.Notes = append(t.Notes, "wider stripes amplify sub-stripe updates: more old data read, more chunks rewritten")
	return t, nil
}

// ablateStripeCache disables the primary's stripe cache: sequential EC reads
// lose their reuse and devolve to per-request stripe fetches, inflating both
// device reads and private traffic (the paper's Fig 15a vs 15b contrast).
func (s *Suite) ablateStripeCache() (Table, error) {
	t := Table{
		ID:      "ablation-stripe-cache",
		Title:   "Stripe cache on/off, RS(6,3) 16KB sequential reads",
		Columns: []string{"stripe cache", "MB/s", "dev-read/req", "privnet/req"},
	}
	for _, stripes := range []int{64, 0} {
		stripes := stripes
		cell, err := s.ablationRun(core.ProfileEC(6, 3), func(c *core.Config) {
			c.StripeCacheStripes = stripes
		}, workload.Job{
			Name: "ablate-cache", Op: workload.Read, Pattern: workload.Sequential,
			BlockSize: 16 << 10, Ramp: s.Opt.Ramp,
		}, true)
		if err != nil {
			return Table{}, err
		}
		label := "on"
		if stripes == 0 {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, f1(cell.MBps), f2(cell.DevReadPerReq), f2(cell.NetPerReq)})
	}
	t.Notes = append(t.Notes, "without the cache every sequential request refetches its stripe from k OSDs")
	return t, nil
}

// ablateWAL disables deferred-write journaling: small-write device
// amplification should drop by roughly the journal's share (§VI-A).
func (s *Suite) ablateWAL() (Table, error) {
	t := Table{
		ID:      "ablation-wal",
		Title:   "Deferred-write journal on/off, 3-Rep 4KB random writes",
		Columns: []string{"WAL", "MB/s", "dev-write/req"},
	}
	for _, threshold := range []int64{32 << 10, 0} {
		threshold := threshold
		cell, err := s.ablationRun(core.ProfileReplicated(3), func(c *core.Config) {
			c.Store.DeferredThreshold = threshold
		}, workload.Job{
			Name: "ablate-wal", Op: workload.Write, Pattern: workload.Random, BlockSize: 4 << 10,
		}, false)
		if err != nil {
			return Table{}, err
		}
		label := "on"
		if threshold == 0 {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, f1(cell.MBps), f2(cell.DevWritePerReq)})
	}
	t.Notes = append(t.Notes, "journaling roughly doubles small-write device traffic")
	return t, nil
}

// ablateClientCap removes the client librbd dispatch serialization: the
// mechanism that makes single-client 4KB random reads nearly identical
// across schemes (§IV-B). Without it the schemes separate.
func (s *Suite) ablateClientCap() (Table, error) {
	t := Table{
		ID:      "ablation-client-cap",
		Title:   "Client dispatch serialization on/off, 4KB random reads",
		Columns: []string{"client serial", "3-Rep MB/s", "RS(6,3) MB/s", "ratio"},
	}
	for _, serial := range []time.Duration{core.DefaultCostModel().ClientDispatchSerial, 0} {
		serial := serial
		mutate := func(c *core.Config) { c.Cost.ClientDispatchSerial = serial }
		job := workload.Job{
			Name: "ablate-cap", Op: workload.Read, Pattern: workload.Random,
			BlockSize: 4 << 10, Ramp: s.Opt.Ramp,
		}
		rep, err := s.ablationRun(core.ProfileReplicated(3), mutate, job, true)
		if err != nil {
			return Table{}, err
		}
		ec, err := s.ablationRun(core.ProfileEC(6, 3), mutate, job, true)
		if err != nil {
			return Table{}, err
		}
		label := "on"
		if serial == 0 {
			label = "off"
		}
		ratio := 0.0
		if ec.MBps > 0 {
			ratio = rep.MBps / ec.MBps
		}
		t.Rows = append(t.Rows, []string{label, f1(rep.MBps), f1(ec.MBps), f2(ratio)})
	}
	t.Notes = append(t.Notes, "the shared client dispatch path explains the paper's <10% random-read difference")
	return t, nil
}

// ablatePGCount sweeps placement groups: fewer PGs concentrate the lock
// contention that gives random accesses their advantage (§VII-A).
func (s *Suite) ablatePGCount() (Table, error) {
	t := Table{
		ID:      "ablation-pg-count",
		Title:   "PG-count sweep, RS(6,3) 4KB random writes",
		Columns: []string{"PGs", "MB/s", "lat ms"},
	}
	for _, pgs := range []int{16, 128, s.Opt.PGs} {
		pgs := pgs
		cell, err := s.ablationRun(core.ProfileEC(6, 3), func(c *core.Config) {
			c.PGsPerPool = pgs
		}, workload.Job{
			Name: "ablate-pg", Op: workload.Write, Pattern: workload.Random, BlockSize: 4 << 10,
		}, false)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(pgs), f1(cell.MBps), f2(cell.MeanLatencyUS / 1e3)})
	}
	t.Notes = append(t.Notes, "more PGs spread the PG-lock serialization that throttles random writes")
	return t, nil
}
