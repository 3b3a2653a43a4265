// Failure: drive the repair paths the paper's background discusses (§II-C)
// through the Scenario API: a foreground read job runs across three phases
// while OSDs fail mid-run and background recovery rebuilds the lost shards
// — with every byte really carried, so degraded reads prove the recover
// matrix works. The per-phase results expose the reconstruction tax and
// the repair traffic of §IV-E. The tail of the example exercises the
// transient-outage path (writes during an outage, restore, paced backfill
// of only the divergent objects) and a deep scrub repairing an injected
// latent shard error.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ecarray"
)

func main() { run(os.Stdout) }

// run is the whole example; it prints to w.
func run(w io.Writer) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cfg.CarryData = true

	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := cluster.CreatePool("data", ecarray.ProfileEC(6, 3))
	if err != nil {
		log.Fatal(err)
	}
	img, err := cluster.CreateImage("data", "vol0", 64<<20)
	if err != nil {
		log.Fatal(err)
	}

	// Write a recognizable payload through the full coding pipeline.
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	cluster.Engine().RunProc("write", func(p *ecarray.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			log.Fatal(err)
		}
	})
	img.Prefill() // remaining objects initialized for the read job
	fmt.Fprintf(w, "wrote %d KiB to RS(6,3) pool\n", len(payload)>>10)

	// Fail three OSDs holding shards of the first object — the maximum
	// RS(6,3) tolerates — at the first phase boundary; start recovery at
	// the second.
	acting := pool.ActingSet(img.ObjectName(0))
	const phase = 400 * time.Millisecond
	sc := ecarray.NewScenario(cluster).
		AddJob(img, ecarray.Job{
			Name: "reader", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
			BlockSize: 8 << 10, QueueDepth: 16, Duration: 3 * phase, Seed: 1,
		}).
		Phase("healthy", phase).
		Phase("degraded", phase).
		Phase("recovering", phase).
		At(2*phase, ecarray.StartRecovery("data"))
	for _, osd := range acting[:3] {
		sc.At(phase, ecarray.FailOSD(osd))
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}

	reader := res.Job("reader")
	if reader.Result.Errors != 0 {
		log.Fatalf("reads failed: %d errors", reader.Result.Errors)
	}
	fmt.Fprintf(w, "\n%-12s %10s %10s %14s\n", "phase", "MB/s", "lat ms", "privnet/req")
	for i, pr := range reader.Phases {
		perReq := 0.0
		if pr.Bytes > 0 {
			perReq = float64(res.PhaseMetrics[i].PrivateBytes) / float64(pr.Bytes)
		}
		fmt.Fprintf(w, "%-12s %10.1f %10.2f %14.2f\n",
			res.Phases[i].Name, pr.MBps, float64(pr.MeanLatency)/1e6, perReq)
	}
	fmt.Fprintln(w, "\nan EC read always pulls k chunks, so online reads already pay repair-like")
	fmt.Fprintln(w, "traffic (the paper's RS-concatenation observation); failed OSDs add the")
	fmt.Fprintln(w, "recover-matrix reconstruction, and the recovery phase stacks repair pulls on top")

	for _, rec := range res.Recoveries {
		if rec.Err != nil {
			log.Fatal(rec.Err)
		}
		fmt.Fprintf(w, "\nrecovery: repaired %d PGs, rebuilt %d shards (%.1f MiB) in %v simulated\n",
			rec.Stats.PGsRepaired, rec.Stats.ShardsRebuilt,
			float64(rec.Stats.BytesRebuilt)/(1<<20), rec.Stats.DurationSimulated)
		fmt.Fprintf(w, "          pulled %.1f MiB to rebuild %.1f MiB — the paper's k-fold repair traffic\n",
			float64(rec.Stats.BytesPulled)/(1<<20), float64(rec.Stats.BytesRebuilt)/(1<<20))
	}

	fmt.Fprintln(w, "\nevent log:")
	for _, ev := range res.Events {
		fmt.Fprintf(w, "  %v\n", ev)
	}

	// The payload must read back intact on the recovered layout.
	cluster.Engine().RunProc("verify", func(p *ecarray.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			log.Fatal("post-recovery verification failed")
		}
	})
	fmt.Fprintln(w, "\ndata verified on the recovered layout")

	// Transient outage with writes: the victim OSD returns holding stale
	// shards. Re-admission marks its divergent positions backfilling (reads
	// reconstruct around them), and a backfill pass re-syncs exactly the
	// objects written during the outage.
	victim := pool.ActingSet(img.ObjectName(0))[3]
	cluster.MarkOSDOut(victim)
	for i := range payload[:256<<10] {
		payload[i] = byte(i*17 + 3) // diverge the first object's contents
	}
	cluster.Engine().RunProc("outage-write", func(p *ecarray.Proc) {
		if err := img.Write(p, 0, payload[:256<<10], 256<<10); err != nil {
			log.Fatal(err)
		}
	})
	cluster.MarkOSDIn(victim)
	fmt.Fprintf(w, "\nosd%d failed, 256 KiB rewritten, osd%d restored: %d PGs backfilling\n",
		victim, victim, pool.Backfilling())

	// Before backfill the stale shard must not be served: reads reconstruct
	// around the backfilling position and still see the new bytes.
	cluster.Engine().RunProc("stale-check", func(p *ecarray.Proc) {
		got, err := img.Read(p, 0, 256<<10)
		if err != nil || !bytes.Equal(got, payload[:256<<10]) {
			log.Fatal("read served stale shard contents before backfill")
		}
	})
	fmt.Fprintln(w, "pre-backfill reads reconstruct around the stale shard: data correct")

	cluster.Engine().RunProc("backfill", func(p *ecarray.Proc) {
		st, err := pool.Backfill(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "backfill: %d PGs, %d objects re-synced (%.1f MiB) in %v simulated\n",
			st.PGsBackfilled, st.ObjectsSynced,
			float64(st.BytesRestored)/(1<<20), st.DurationSimulated)
	})
	cluster.Engine().RunProc("post-backfill-verify", func(p *ecarray.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			log.Fatal("post-backfill verification failed")
		}
	})
	fmt.Fprintf(w, "data verified after backfill; %d PGs still backfilling\n", pool.Backfilling())

	// Latent shard error: corrupt a data chunk silently, then deep-scrub.
	if err := pool.InjectLatentError(img.ObjectName(0), 1); err != nil {
		log.Fatal(err)
	}
	cluster.Engine().RunProc("scrub", func(p *ecarray.Proc) {
		st, err := pool.Scrub(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "\nscrub: %d objects scanned, %d latent errors found, %d shards repaired\n",
			st.ObjectsScanned, st.ErrorsFound, st.ShardsRepaired)
	})
	cluster.Engine().RunProc("post-scrub-verify", func(p *ecarray.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			log.Fatal("post-scrub verification failed")
		}
	})
	fmt.Fprintln(w, "data verified after scrub repair")

	// A further m+1 failures exceed the restored tolerance: reads refuse.
	acting = pool.ActingSet(img.ObjectName(0))
	for _, osd := range acting[:4] {
		cluster.MarkOSDOut(osd)
	}
	cluster.Engine().RunProc("too-degraded", func(p *ecarray.Proc) {
		if _, err := img.Read(p, 0, 4096); err != nil {
			fmt.Fprintf(w, "m+1 failures: read correctly refused (%v)\n", err)
		} else {
			log.Fatal("read beyond fault tolerance unexpectedly succeeded")
		}
	})

	cluster.Stop()
	cluster.Engine().Run()
}
