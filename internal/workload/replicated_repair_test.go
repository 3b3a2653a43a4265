package workload

import (
	"fmt"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

// goldenReplicatedRepairDigest pins the full ScenarioResult of the replicated
// pool's three repair paths, which the EC goldens never reach: a paced mixed
// job on a 3-Rep pool through an OSD failure and a throttled recovery onto a
// replacement, a second failure with a guaranteed divergent write, a
// restore-with-backfill, a latent error on a non-primary replica and the
// scrub that re-copies it — plus a post-drain read. A changed value means
// the replicated recover/backfill/scrub paths shifted simulated behaviour;
// re-capture only when that is intended.
const goldenReplicatedRepairDigest = "54505bb397a39def"

func replicatedRepairDigest(t *testing.T, codecConc int) string {
	t.Helper()
	c, _, imgRep := scenarioCluster(t, true, codecConc)
	imgRep.Prefill()
	obj0 := imgRep.ObjectName(0)
	acting := c.Pool("rep").ActingSet(obj0)
	first, second := acting[0], acting[1]
	res, err := NewScenario(c).
		AddJob(imgRep, Job{
			Name: "paced", Op: Mixed, MixRead: 70, Pattern: Random, BlockSize: 4 << 10,
			QueueDepth: 4, Rate: 2000, Duration: 900 * time.Millisecond, Seed: 43,
		}).
		Phase("healthy", 150*time.Millisecond).
		Phase("repairing", 450*time.Millisecond).
		Phase("restored", 300*time.Millisecond).
		At(150*time.Millisecond, FailOSD(first)).
		At(200*time.Millisecond, SetRecoveryRate("rep", 256<<20)).
		At(200*time.Millisecond, StartRecovery("rep")).
		// After the recovery pass has finished: the second outage is a
		// transient one, repaired by backfill rather than replacement.
		At(500*time.Millisecond, FailOSD(second)).
		// A write that provably lands on the second victim's PG while it is
		// out, so the restore always has divergence to backfill.
		At(550*time.Millisecond, Callback("outage-write", func(p *sim.Proc, cl *core.Cluster) {
			payload := make([]byte, 64<<10)
			for i := range payload {
				payload[i] = byte(i*17 + 3)
			}
			if err := imgRep.Write(p, 0, payload, int64(len(payload))); err != nil {
				t.Errorf("outage write: %v", err)
			}
		})).
		At(600*time.Millisecond, RestoreOSD(second)).
		At(760*time.Millisecond, InjectCorruption("rep", obj0, 2)).
		At(800*time.Millisecond, StartScrub("rep")).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Stats.ReplicasCopied == 0 {
		t.Fatalf("recovery copied nothing: %+v", res.Recoveries)
	}
	if len(res.Backfills) != 1 || res.Backfills[0].Stats.ReplicasCopied == 0 {
		t.Fatalf("restore produced no backfill work: %+v", res.Backfills)
	}
	if len(res.Injects) != 1 || res.Injects[0].Err != nil {
		t.Fatalf("injection outcome: %+v", res.Injects)
	}
	if len(res.Scrubs) != 1 || res.Scrubs[0].Stats.ErrorsFound != 1 || res.Scrubs[0].Stats.ShardsRepaired != 1 {
		t.Fatalf("scrub missed the injected error: %+v", res.Scrubs)
	}
	e := c.Engine()
	e.Drain()

	var post int64
	e.RunProc("post-drain", func(p *sim.Proc) {
		data, err := imgRep.Read(p, 0, 8<<10)
		if err != nil {
			t.Errorf("post-drain read: %v", err)
			return
		}
		post = int64(len(data)) + int64(p.Now())
	})

	sum := uint64(14695981039346656037)
	fold := func(s string) {
		for i := 0; i < len(s); i++ {
			sum ^= uint64(s[i])
			sum *= 1099511628211
		}
	}
	// Dereferenced: *ScenarioResult is a Stringer whose summary omits the
	// repair stats, metrics and event log this golden exists to pin.
	fold(fmt.Sprintf("%+v", *res))
	fold(fmt.Sprintf("post=%d", post))
	return fmt.Sprintf("%016x", sum)
}

// TestReplicatedRepairGoldenDigest pins the replicated
// fail→recover→fail→restore→backfill→inject→scrub scenario byte-for-byte,
// across codec concurrency 1 vs 4.
func TestReplicatedRepairGoldenDigest(t *testing.T) {
	for _, conc := range []int{1, 4} {
		if got := replicatedRepairDigest(t, conc); got != goldenReplicatedRepairDigest {
			t.Errorf("codec concurrency %d: replicated-repair digest = %s, want golden %s",
				conc, got, goldenReplicatedRepairDigest)
		}
	}
}
