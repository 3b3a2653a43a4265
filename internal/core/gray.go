package core

import (
	"fmt"
	"math/rand"
	"time"

	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// Gray failures — degraded-but-alive OSDs — are the failure mode between
// healthy and fail-stop: the device keeps answering, just slowly, stuck, or
// with intermittent errors, and without countermeasures a single sick OSD
// drags the tail of every EC read that touches it (the §IV latency analysis:
// EC latency is the latency of the slowest shard). This file holds the
// fault-injection surface (DegradeOSD/RestoreOSDHealth), the per-OSD health
// tracker feeding the circuit breaker, and the knobs/counters for the
// shard fetch in tailfetch.go.

// GrayConfig are the gray-failure tolerance knobs. They tune the one shard
// fetch every read runs (tailfetch.go). The zero value turns off deadlines,
// hedging, retries and the breaker: a read then waits for its first
// candidates, an injected device error fails over to a spare at once, and
// every request is still scored by the health tracker, which draws no
// randomness.
type GrayConfig struct {
	// ShardTimeout is the per-shard request deadline on the shard
	// fetch path: a request outstanding this long is abandoned and its
	// shard served by reconstruction from a spare shard (EC) or another
	// replica, when one is live. 0 disables deadlines.
	ShardTimeout time.Duration
	// ShardRetries bounds re-issues of a shard request after an injected
	// intermittent error; each retry backs off exponentially from
	// RetryBackoff. 0 means a faulted request fails over immediately.
	ShardRetries int
	// RetryBackoff is the first retry's backoff; attempt i waits
	// RetryBackoff << i.
	RetryBackoff time.Duration
	// HedgeDelay: when the oldest outstanding shard request has waited
	// this long, one extra speculative request is issued to a spare shard
	// and the first k results win (the loser is abandoned). 0 disables
	// hedging.
	HedgeDelay time.Duration

	// HealthAlpha is the EWMA weight of each new latency/error sample in
	// the per-OSD health tracker (0 defaults to 0.2).
	HealthAlpha float64
	// SlowLatency flags an OSD slow when its EWMA shard-service latency
	// exceeds it. 0 disables the latency signal.
	SlowLatency time.Duration
	// ErrorThreshold flags an OSD slow when its EWMA failure rate
	// (timeouts + injected errors per request) exceeds it. 0 disables the
	// error signal.
	ErrorThreshold float64
	// EjectAfter is the circuit breaker: after this many consecutive
	// flagged samples the OSD is auto-ejected into the MarkOSDOut →
	// backfill lifecycle. 0 disables auto-eject (osd-slow still emits).
	EjectAfter int
	// Probation delays re-admission of an auto-ejected OSD after
	// RestoreOSDHealth: the OSD rejoins placement (through the usual
	// backfill path) only once the window passes.
	Probation time.Duration
}

// DefaultGrayConfig returns tail-tolerance knobs sized for the default
// testbed: deadlines a few× the healthy shard fetch, hedging before the
// deadline, and a breaker that trips after a sustained sick signal.
func DefaultGrayConfig() GrayConfig {
	return GrayConfig{
		ShardTimeout:   2 * time.Millisecond,
		ShardRetries:   2,
		RetryBackoff:   200 * time.Microsecond,
		HedgeDelay:     800 * time.Microsecond,
		HealthAlpha:    0.2,
		SlowLatency:    500 * time.Microsecond,
		ErrorThreshold: 0.5,
		EjectAfter:     30,
		Probation:      100 * time.Millisecond,
	}
}

func (g *GrayConfig) alpha() float64 {
	if g.HealthAlpha > 0 {
		return g.HealthAlpha
	}
	return 0.2
}

func (g *GrayConfig) validate() error {
	switch {
	case g.ShardTimeout < 0 || g.RetryBackoff < 0 || g.HedgeDelay < 0 || g.Probation < 0:
		return fmt.Errorf("core: negative gray durations: %+v", *g)
	case g.ShardRetries < 0 || g.EjectAfter < 0:
		return fmt.Errorf("core: negative gray counts: %+v", *g)
	case g.HealthAlpha < 0 || g.HealthAlpha > 1:
		return fmt.Errorf("core: gray HealthAlpha must be in [0,1]: %g", g.HealthAlpha)
	case g.ErrorThreshold < 0 || g.ErrorThreshold > 1:
		return fmt.Errorf("core: gray ErrorThreshold must be in [0,1]: %g", g.ErrorThreshold)
	case g.ShardRetries > 0 && g.RetryBackoff == 0:
		return fmt.Errorf("core: gray ShardRetries needs a positive RetryBackoff")
	case g.SlowLatency < 0:
		return fmt.Errorf("core: negative gray SlowLatency")
	}
	return nil
}

// OSDDegradation is the cluster-level gray-fault injection for one OSD: the
// device knobs plus the host's network face.
type OSDDegradation struct {
	// Device degradation: latency multiplier, intermittent errors, stuck
	// I/O (see ssd.Degradation).
	Device ssd.Degradation
	// NetLatencyMultiplier stretches private-network propagation latency
	// for the OSD's host. The NIC is shared: co-located OSDs feel it too,
	// and the host keeps the largest multiplier over its degraded OSDs.
	NetLatencyMultiplier float64
}

// Active reports whether any knob deviates from healthy behaviour.
func (d OSDDegradation) Active() bool {
	return d.Device.Active() || (d.NetLatencyMultiplier > 0 && d.NetLatencyMultiplier != 1)
}

// GrayMetrics counts tail-tolerance outcomes cluster-wide. All counters are
// cumulative since cluster construction; Sub derives per-phase deltas.
type GrayMetrics struct {
	ShardTimeouts int64 // shard requests abandoned at their deadline
	ShardFaults   int64 // injected intermittent errors observed
	ShardRetries  int64 // re-issues after injected errors
	HedgesIssued  int64 // speculative extra shard requests
	HedgesWon     int64 // hedges that finished among the winners
	Ejects        int64 // circuit-breaker auto-ejects
	Readmits      int64 // probation re-admissions
}

// Sub returns m - prev, counter-wise.
func (m GrayMetrics) Sub(prev GrayMetrics) GrayMetrics {
	return GrayMetrics{
		ShardTimeouts: m.ShardTimeouts - prev.ShardTimeouts,
		ShardFaults:   m.ShardFaults - prev.ShardFaults,
		ShardRetries:  m.ShardRetries - prev.ShardRetries,
		HedgesIssued:  m.HedgesIssued - prev.HedgesIssued,
		HedgesWon:     m.HedgesWon - prev.HedgesWon,
		Ejects:        m.Ejects - prev.Ejects,
		Readmits:      m.Readmits - prev.Readmits,
	}
}

// OSDHealth is one OSD's health-tracker snapshot.
type OSDHealth struct {
	// Score is 1 − EWMA failure rate: 1.0 is healthy, 0 is every request
	// failing.
	Score float64
	// EWMALatency is the tracked shard-service latency.
	EWMALatency time.Duration
	// Samples is how many shard requests have been scored.
	Samples int64
	// Slow, Ejected, Degraded: flagged by the tracker, taken out by the
	// breaker, under active fault injection.
	Slow     bool
	Ejected  bool
	Degraded bool
}

// osdGray is the per-OSD gray state: injected faults and health tracking.
type osdGray struct {
	rng      *rand.Rand // per-OSD injection stream, seeded from Config.Seed
	deg      OSDDegradation
	degraded bool // DegradeOSD called (knobs may since be cleared by Restore)

	ewmaLat float64 // seconds
	ewmaErr float64 // failure rate in [0,1]
	samples int64
	slow    bool // osd-slow emitted, not yet recovered
	badRun  int  // consecutive flagged samples (breaker input)
	ejected bool // breaker took it out of placement
}

// grayRand returns the OSD's injection RNG, creating it on first use. The
// stream depends only on (Config.Seed, id), so injection is deterministic
// and independent of degrade order and of every other OSD.
func (c *Cluster) grayRand(id int) *rand.Rand {
	h := &c.gray[id]
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(c.cfg.Seed ^ (int64(id+1) * 0x5851f42d4c957f2d)))
	}
	return h.rng
}

// GrayMetrics returns the cumulative tail-tolerance counters.
func (c *Cluster) GrayMetrics() GrayMetrics { return c.grayM }

// OSDHealth returns the health tracker's view of one OSD.
func (c *Cluster) OSDHealth(id int) OSDHealth {
	h := &c.gray[id]
	return OSDHealth{
		Score:       1 - h.ewmaErr,
		EWMALatency: time.Duration(h.ewmaLat * float64(time.Second)),
		Samples:     h.samples,
		Slow:        h.slow,
		Ejected:     h.ejected,
		Degraded:    h.degraded && h.deg.Active(),
	}
}

// DegradeOSD installs gray-fault injection on an up OSD: the device serves
// slowly/stuck/faulted per deg.Device, and the host's private-network
// latency stretches per deg.NetLatencyMultiplier. Degrading an out OSD is
// an error (fail-stop and gray failure are different states; restore it
// first). Re-degrading an OSD replaces its knobs.
func (c *Cluster) DegradeOSD(id int, deg OSDDegradation) error {
	if id < 0 || id >= len(c.osds) {
		return fmt.Errorf("core: no osd%d", id)
	}
	o := c.osds[id]
	if !o.up {
		return fmt.Errorf("core: cannot degrade osd%d: it is out", id)
	}
	if deg.NetLatencyMultiplier < 0 {
		return fmt.Errorf("core: negative net latency multiplier %g", deg.NetLatencyMultiplier)
	}
	if err := o.Store.Device().SetDegradation(deg.Device, c.grayRand(id)); err != nil {
		return err
	}
	h := &c.gray[id]
	h.deg = deg
	h.degraded = true
	c.applyNodeNetDegradation(o.Node)
	c.emitEvent("osd-degrade", fmt.Sprintf("osd%d (host %s): dev ×%g err %g stuck %g net ×%g",
		id, o.Node.Name, deg.Device.LatencyMultiplier, deg.Device.ErrorProb,
		deg.Device.StuckProb, deg.NetLatencyMultiplier))
	return nil
}

// RestoreOSDHealth clears an OSD's gray-fault injection. A never-degraded
// OSD is an error. If the circuit breaker had ejected the OSD, it re-admits
// through a probation window: after GrayConfig.Probation the OSD rejoins
// placement via the usual MarkOSDIn → backfill lifecycle with a reset
// health tracker, and a backfill pass re-syncs whatever diverged.
func (c *Cluster) RestoreOSDHealth(id int) error {
	if id < 0 || id >= len(c.osds) {
		return fmt.Errorf("core: no osd%d", id)
	}
	h := &c.gray[id]
	if !h.degraded {
		return fmt.Errorf("core: osd%d is not degraded", id)
	}
	o := c.osds[id]
	o.Store.Device().ClearDegradation()
	h.deg = OSDDegradation{}
	h.degraded = false
	c.applyNodeNetDegradation(o.Node)
	c.emitEvent("osd-restore", fmt.Sprintf("osd%d (host %s)", id, o.Node.Name))
	if h.ejected {
		prob := c.cfg.Gray.Probation
		c.emitEvent("osd-probation", fmt.Sprintf("osd%d re-admits in %v", id, prob))
		c.e.Schedule(prob, func() { c.readmit(id) })
	} else {
		// Healthy again: let the tracker re-learn from scratch.
		h.resetHealth()
	}
	return nil
}

// readmit completes an ejected OSD's probation: back into placement with a
// clean tracker. Skipped if the OSD was degraded again or brought in by
// other means meanwhile.
func (c *Cluster) readmit(id int) {
	h := &c.gray[id]
	if !h.ejected || h.degraded {
		return
	}
	h.ejected = false
	h.resetHealth()
	c.grayM.Readmits++
	c.MarkOSDIn(id)
	// Re-sync divergence accumulated while out: one paced backfill pass
	// per pool that needs it (the same lifecycle a manual restore runs).
	c.e.Go("gray-backfill", func(p *sim.Proc) {
		for _, pl := range c.poolList {
			if pl.Backfilling() > 0 {
				if _, err := pl.Backfill(p); err != nil {
					panic(fmt.Sprintf("core: gray readmit backfill: %v", err))
				}
			}
		}
	})
}

func (h *osdGray) resetHealth() {
	h.ewmaLat, h.ewmaErr, h.samples, h.slow, h.badRun = 0, 0, 0, false, 0
}

// applyNodeNetDegradation recomputes a host's private-network latency
// multiplier as the max over its still-degraded OSDs (the NIC is shared).
func (c *Cluster) applyNodeNetDegradation(n *Node) {
	m := 0.0
	for id, o := range c.osds {
		if o.Node != n {
			continue
		}
		h := &c.gray[id]
		if h.degraded && h.deg.NetLatencyMultiplier > m {
			m = h.deg.NetLatencyMultiplier
		}
	}
	c.private.SetNodeLatencyMultiplier(n.Name, m)
}

// noteShardSample scores one completed (or abandoned) shard request against
// the OSD's health tracker and runs the circuit breaker. Every shard request
// of the read path calls it; with the knobs at zero it only updates the
// EWMAs, since no threshold can flag the OSD.
func (c *Cluster) noteShardSample(id int, lat time.Duration, failed bool) {
	g := &c.cfg.Gray
	h := &c.gray[id]
	a := g.alpha()
	f := 0.0
	if failed {
		f = 1
	}
	if h.samples == 0 {
		h.ewmaLat, h.ewmaErr = lat.Seconds(), f
	} else {
		h.ewmaLat = (1-a)*h.ewmaLat + a*lat.Seconds()
		h.ewmaErr = (1-a)*h.ewmaErr + a*f
	}
	h.samples++

	if h.ejected || !c.osds[id].up {
		return
	}
	flagged := (g.SlowLatency > 0 && h.ewmaLat > g.SlowLatency.Seconds()) ||
		(g.ErrorThreshold > 0 && h.ewmaErr > g.ErrorThreshold)
	if !flagged {
		h.slow = false
		h.badRun = 0
		return
	}
	if !h.slow {
		h.slow = true
		c.emitEvent("osd-slow", fmt.Sprintf("osd%d: ewma lat %v, err rate %.2f",
			id, time.Duration(h.ewmaLat*float64(time.Second)).Round(time.Microsecond), h.ewmaErr))
	}
	h.badRun++
	if g.EjectAfter > 0 && h.badRun >= g.EjectAfter {
		h.ejected = true
		c.grayM.Ejects++
		c.emitEvent("osd-eject", fmt.Sprintf("osd%d after %d flagged samples", id, h.badRun))
		c.MarkOSDOut(id)
	}
}
