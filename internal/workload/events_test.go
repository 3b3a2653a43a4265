package workload

import (
	"errors"
	"fmt"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

// Scenario events only tests schedule: a restore without its backfill
// pass, a deep scrub, a latent-error injection and a callback.

// RestoreOSDNoBackfill is RestoreOSD without the automatic backfill pass:
// divergent positions stay `backfilling` (excluded from reads and writes)
// until the caller runs a backfill some other way. Use it to measure the
// degraded window itself, or to schedule the re-sync separately.
func RestoreOSDNoBackfill(id int) Event { return restoreOSD{id: id, backfill: false} }

type startScrub struct{ pool string }

// StartScrub returns an event that launches a deep-scrub pass on the named
// pool: every live shard copy of every object is read and verified, and
// latent shard errors (InjectCorruption) are detected and repaired by
// reconstruction. The outcome lands in ScenarioResult.Scrubs.
func StartScrub(pool string) Event { return startScrub{pool} }

func (ev startScrub) String() string { return fmt.Sprintf("start-scrub(%s)", ev.pool) }
func (ev startScrub) Validate(tl *Timeline) error {
	return tl.checkPool("StartScrub", ev.pool)
}
func (ev startScrub) run(p *sim.Proc, r *scenarioRun) {
	pl := r.c.Pool(ev.pool)
	sc := ScrubResult{Pool: ev.pool, Start: r.rel(p.Now())}
	sc.Stats, sc.Err = pl.Scrub(p)
	sc.End = r.rel(p.Now())
	r.scrubs = append(r.scrubs, sc)
}

type injectCorruption struct {
	pool  string
	obj   string
	shard int
}

// InjectCorruption returns an event that silently corrupts the shard copy
// of obj held at shard position shard in the named pool — a latent media
// error: no I/O is simulated and nothing notices until a scrub reads the
// shard back. The outcome (including a lookup failure if the object does
// not exist at firing time) lands in ScenarioResult.Injects.
func InjectCorruption(pool, obj string, shard int) Event {
	return injectCorruption{pool: pool, obj: obj, shard: shard}
}

func (ev injectCorruption) String() string {
	return fmt.Sprintf("inject-corruption(%s, %s, shard %d)", ev.pool, ev.obj, ev.shard)
}
func (ev injectCorruption) Validate(tl *Timeline) error {
	if err := tl.checkPool("InjectCorruption", ev.pool); err != nil {
		return err
	}
	if ev.shard < 0 {
		return fmt.Errorf("workload: InjectCorruption: negative shard position %d", ev.shard)
	}
	return nil
}
func (ev injectCorruption) run(p *sim.Proc, r *scenarioRun) {
	pl := r.c.Pool(ev.pool)
	r.injects = append(r.injects, InjectResult{
		Pool:  ev.pool,
		Obj:   ev.obj,
		Shard: ev.shard,
		At:    r.rel(p.Now()),
		Err:   pl.InjectLatentError(ev.obj, ev.shard),
	})
}

type callback struct {
	name string
	fn   func(p *sim.Proc, c *core.Cluster)
}

// Callback returns an escape-hatch event running fn as a simulation
// process (custom fault injection, co-simulated processes). fn must keep
// the run deterministic: no wall-clock time, no global randomness.
func Callback(name string, fn func(p *sim.Proc, c *core.Cluster)) Event {
	return callback{name: name, fn: fn}
}

func (ev callback) String() string { return ev.name }
func (ev callback) Validate(tl *Timeline) error {
	if ev.fn == nil {
		return errors.New("workload: Callback with nil function")
	}
	return nil
}
func (ev callback) run(p *sim.Proc, r *scenarioRun) { ev.fn(p, r.c) }
