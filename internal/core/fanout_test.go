package core

import (
	"testing"
	"time"

	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// TestShardRacePoolReuse: a shard race rejoins its cluster's pool only once
// its caller has released it and its last request process has returned — a
// timed-out loser still running holds it out — and a race whose process
// Drain killed never rejoins.
func TestShardRacePoolReuse(t *testing.T) {
	cfg := grayConfig(false)
	cfg.Gray.HedgeDelay = 0
	e, c := newTestCluster(t, cfg)
	pl, _ := c.CreatePool("ec", ProfileEC(4, 2))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	img.Prefill()
	// A data shard of the first object far slower than the shard deadline:
	// reads finish by reconstruction while its request keeps running.
	victim := pl.pgOf(img.ObjectName(0)).shards[1]
	if err := c.DegradeOSD(victim, OSDDegradation{Device: ssd.Degradation{LatencyMultiplier: 1000}}); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	stripe := int64(0) // each read a new stripe: the stripe cache never answers
	read := func(p *sim.Proc) {
		stripe++
		if _, err := img.Read(p, stripe*pl.geom().stripeWidth, 4096); err != nil {
			t.Error(err)
		}
	}

	pooledAtReturn := -1
	e.Go("read", func(p *sim.Proc) {
		read(p)
		pooledAtReturn = len(c.races)
	})
	e.Run()
	if pooledAtReturn != 0 || len(c.races) != 1 {
		t.Fatalf("pooled races: %d when the read returned (want 0: the loser still runs), %d after (want 1)",
			pooledAtReturn, len(c.races))
	}

	e.Go("read", read)
	e.RunUntil(e.Now() + sim.Time(time.Millisecond)) // the reused race's requests are in flight
	if len(c.races) != 0 {
		t.Fatalf("%d pooled races mid-read, want 0", len(c.races))
	}
	e.Drain()
	if len(c.races) != 0 {
		t.Fatal("a race whose processes Drain killed went back to the pool")
	}
}
