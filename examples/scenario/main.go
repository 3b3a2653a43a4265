// Scenario: compose the paper's most interesting conditions in one run —
// two tenants (a 3-replicated pool and an RS(6,3) erasure-coded pool)
// sharing the cluster, an OSD failure at t=1s, and background recovery
// overlapping foreground traffic — using the ecarray Scenario API. The
// same seed and scenario produce byte-identical results on every run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ecarray"
)

func main() {
	phase := flag.Duration("phase", time.Second, "length of each of the three phases")
	flag.Parse()
	run(os.Stdout, *phase)
}

// run is the whole example with phases of the given length; it prints to w.
func run(w io.Writer, phase time.Duration) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 4 << 30
	cfg.PGsPerPool = 128

	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.CreatePool("rep", ecarray.ProfileReplicated(3)); err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.CreatePool("ec", ecarray.ProfileEC(6, 3)); err != nil {
		log.Fatal(err)
	}
	repImg, err := cluster.CreateImage("rep", "tenant-a", 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	ecImg, err := cluster.CreateImage("ec", "tenant-b", 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	repImg.Prefill()
	ecImg.Prefill()

	// Three phases: healthy baseline, degraded service after osd3 fails at
	// the first boundary (t = 1s by default), then repair overlapping the
	// foreground tenants.
	res, err := ecarray.NewScenario(cluster).
		AddJob(repImg, ecarray.Job{
			Name: "tenant-a(3rep)", Op: ecarray.OpMixed, MixRead: 70,
			Pattern: ecarray.PatternRandom, BlockSize: 4 << 10,
			QueueDepth: 64, Duration: 3 * phase, Seed: 1,
		}).
		AddJob(ecImg, ecarray.Job{
			Name: "tenant-b(ec)", Op: ecarray.OpMixed, MixRead: 70,
			Pattern: ecarray.PatternRandom, BlockSize: 4 << 10,
			QueueDepth: 64, Duration: 3 * phase, Seed: 2,
		}).
		Phase("healthy", phase).
		Phase("degraded", phase).
		Phase("recovering", phase).
		At(phase, ecarray.FailOSD(3)).
		At(2*phase, ecarray.SetRecoveryRate("ec", 128<<20)).
		At(2*phase, ecarray.StartRecovery("ec")).
		At(2*phase, ecarray.StartRecovery("rep")).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		cluster.Stop()
		cluster.Engine().Run()
	}()

	fmt.Fprintln(w, res)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %-12s %10s %10s %12s %12s\n",
		"tenant", "phase", "MB/s", "IOPS", "mean ms", "p99 ms")
	for _, jr := range res.Jobs {
		for i, pr := range jr.Phases {
			fmt.Fprintf(w, "%-16s %-12s %10.1f %10.0f %12.2f %12.2f\n",
				jr.Result.Job.Name, res.Phases[i].Name, pr.MBps, pr.IOPS,
				float64(pr.MeanLatency)/1e6, float64(pr.P99Latency)/1e6)
		}
	}

	fmt.Fprintln(w)
	for i, pm := range res.PhaseMetrics {
		fmt.Fprintf(w, "phase %-12s cluster: %5.1f%% CPU, %6.1f MiB private net, %6.1f MiB device reads\n",
			res.Phases[i].Name, (pm.UserCPU+pm.KernelCPU)*100,
			float64(pm.PrivateBytes)/(1<<20), float64(pm.DeviceReadBytes)/(1<<20))
	}

	fmt.Fprintln(w)
	for _, rec := range res.Recoveries {
		if rec.Err != nil {
			log.Fatalf("recovery of %s failed: %v", rec.Pool, rec.Err)
		}
		fmt.Fprintf(w, "recovery %-4s: %d PGs, %d objects, pulled %.1f MiB, rebuilt %.1f MiB in %v\n",
			rec.Pool, rec.Stats.PGsRepaired, rec.Stats.ObjectsRepaired,
			float64(rec.Stats.BytesPulled)/(1<<20), float64(rec.Stats.BytesRebuilt)/(1<<20),
			rec.Stats.DurationSimulated.Round(time.Millisecond))
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "event log:")
	for _, ev := range res.Events {
		fmt.Fprintf(w, "  %v\n", ev)
	}
}
