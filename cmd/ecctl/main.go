// Command ecctl inspects the simulated cluster the way ceph CLI tools
// inspect a real one: CRUSH placement dumps, object→PG mappings, per-OSD
// utilization after a workload, and composed failure scenarios.
//
// Usage:
//
//	ecctl crush    [-profile 3rep|rs6.3|rs10.4] [-pgs 64]
//	ecctl map      [-profile ...] -object rbd_data.vol.0000000000000000
//	ecctl osd-df   [-profile ...] [-duration 1s]
//	ecctl scenario [-profile ...] [-duration 1s] [-fail 2] [-rate 128]
//	ecctl degrade  [-profile ...] [-duration 1s] [-osd 0]
//	               [-latency-mult 10] [-error-rate 0] [-clear=true]
//
// osd-df drives two concurrent tenants (a writer and a reader) through the
// Scenario API and dumps per-OSD device counters plus each OSD's tracked
// health score. scenario runs the healthy→degraded→recovering timeline —
// fail OSDs mid-run, start a throttled recovery — and prints per-phase
// service metrics plus the cluster event log. degrade runs the gray-failure
// timeline instead: the victim OSD stays up but serves with the given
// latency multiplier and intermittent-error rate while the tail-tolerant
// read path (deadlines, hedges, the health breaker) routes around it;
// -clear=false leaves the fault in place instead of restoring health at
// the last phase boundary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ecarray"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands lists what ecctl does, in usage order.
var subcommands = []string{"crush", "map", "osd-df", "scenario", "degrade"}

// run is ecctl over explicit arguments and output streams. It returns the
// exit status: 2 for a bad invocation, 1 for a failed one.
func run(args []string, w, ew io.Writer) int {
	if len(args) < 1 || !slices.Contains(subcommands, args[0]) {
		fmt.Fprintf(ew, "usage: ecctl %s [flags]\n", strings.Join(subcommands, "|"))
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(ew)
	profileName := fs.String("profile", "rs6.3", "pool profile: 3rep, rs6.3, rs10.4")
	pgs := fs.Int("pgs", 32, "placement groups to show (crush) or configure")
	object := fs.String("object", "", "object name (map)")
	duration := fs.Duration("duration", time.Second, "workload length (osd-df), phase length (scenario)")
	failN := fs.Int("fail", 2, "OSDs to fail mid-run (scenario)")
	rateMiB := fs.Int64("rate", 0, "recovery throttle in MiB/s, 0 = unthrottled (scenario)")
	victim := fs.Int("osd", 0, "OSD to degrade (degrade)")
	latMult := fs.Float64("latency-mult", 10, "device latency multiplier, 1 = healthy (degrade)")
	errRate := fs.Float64("error-rate", 0, "intermittent I/O error probability (degrade)")
	clear := fs.Bool("clear", true, "restore the OSD's health at the last phase boundary (degrade)")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}

	profile, err := parseProfile(*profileName)
	if err != nil {
		return failed(ew, err)
	}

	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = max(*pgs, 32)
	if cmd == "degrade" {
		// Every read scores OSD health; the demo also wants the tuned
		// deadlines, hedges and breaker acting on the degraded OSD.
		cfg.Gray = ecarray.DefaultGrayConfig()
	}
	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		return failed(ew, err)
	}
	pool, err := cluster.CreatePool("data", profile)
	if err != nil {
		return failed(ew, err)
	}

	switch cmd {
	case "crush":
		fmt.Fprintf(w, "pool data profile=%s width=%d pgs=%d\n", profile, profile.Width(), pool.PGs())
		for pg := 0; pg < *pgs && pg < pool.PGs(); pg++ {
			// Use a synthetic object that maps to each PG for display; the
			// acting set is a property of the PG itself.
			fmt.Fprintf(w, "  pg %4d -> %v\n", pg, actingOfPG(pool, pg))
		}
	case "map":
		if *object == "" {
			return failed(ew, fmt.Errorf("map requires -object"))
		}
		set := pool.ActingSet(*object)
		fmt.Fprintf(w, "object %q\n  pg:      %d\n  acting:  %v (primary osd%d)\n  hosts:   %s\n",
			*object, pool.PGFor(*object), set, set[0], hostsOf(cluster, set))
	case "osd-df":
		err = osdDF(w, cluster, *duration)
	case "scenario":
		err = runScenario(w, cluster, *duration, *failN, *rateMiB)
	case "degrade":
		err = runDegrade(w, cluster, *duration, *victim, *latMult, *errRate, *clear)
	}
	if err != nil {
		return failed(ew, err)
	}
	return 0
}

// osdDF runs two concurrent tenants through the Scenario API — a random
// writer and a random reader on separate images — then dumps per-OSD
// utilization, so the dump reflects a realistically mixed load.
func osdDF(w io.Writer, cluster *ecarray.Cluster, duration time.Duration) error {
	wImg, err := cluster.CreateImage("data", "ecctl-w", 2<<30)
	if err != nil {
		return err
	}
	rImg, err := cluster.CreateImage("data", "ecctl-r", 2<<30)
	if err != nil {
		return err
	}
	rImg.Prefill()
	if _, err := ecarray.NewScenario(cluster).
		AddJob(wImg, ecarray.Job{
			Name: "writer", Op: ecarray.OpWrite, Pattern: ecarray.PatternRandom,
			BlockSize: 16 << 10, QueueDepth: 32, Duration: duration, Seed: 1,
		}).
		AddJob(rImg, ecarray.Job{
			Name: "reader", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
			BlockSize: 16 << 10, QueueDepth: 32, Duration: duration, Seed: 2,
		}).
		Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-7s %9s %12s %12s %8s %8s %7s %9s %8s\n",
		"osd", "host", "objects", "dev-written", "dev-read", "flashWA", "erases",
		"health", "ewma-lat", "samples")
	for _, osd := range cluster.OSDs() {
		ds := osd.Store.Device().Stats()
		h := cluster.OSDHealth(osd.ID)
		flags := ""
		if h.Slow {
			flags = " SLOW"
		}
		if h.Ejected {
			flags += " EJECTED"
		}
		fmt.Fprintf(w, "osd%-3d %-7s %9d %11.1fM %11.1fM %8.2f %8d %7.3f %8.0fµ %8d%s\n",
			osd.ID, osd.Node.Name, osd.Store.Objects(),
			float64(ds.HostWriteBytes)/(1<<20), float64(ds.HostReadBytes)/(1<<20),
			ds.WriteAmplification(), ds.Erases,
			h.Score, float64(h.EWMALatency)/1e3, h.Samples, flags)
	}
	return nil
}

// runScenario composes the fault timeline: a foreground reader across
// healthy/degraded/recovering phases, failN OSDs failing at the first
// boundary and a (optionally throttled) repair pass at the second.
func runScenario(w io.Writer, cluster *ecarray.Cluster, phase time.Duration, failN int, rateMiB int64) error {
	img, err := cluster.CreateImage("data", "ecctl", 2<<30)
	if err != nil {
		return err
	}
	img.Prefill()
	sc := ecarray.NewScenario(cluster).
		AddJob(img, ecarray.Job{
			Name: "fg", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
			BlockSize: 4 << 10, QueueDepth: 64, Duration: 3 * phase, Seed: 1,
		}).
		Phase("healthy", phase).
		Phase("degraded", phase).
		Phase("recovering", phase).
		At(2*phase, ecarray.StartRecovery("data"))
	for i := 0; i < failN; i++ {
		sc.At(phase, ecarray.FailOSD(i))
	}
	if rateMiB > 0 {
		sc.At(2*phase, ecarray.SetRecoveryRate("data", rateMiB<<20))
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}

	fg := res.Job("fg")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %14s\n", "phase", "MB/s", "lat ms", "p99 ms", "privnet/req")
	for i, pr := range fg.Phases {
		perReq := 0.0
		if pr.Bytes > 0 {
			perReq = float64(res.PhaseMetrics[i].PrivateBytes) / float64(pr.Bytes)
		}
		fmt.Fprintf(w, "%-12s %10.1f %10.2f %10.2f %14.2f\n",
			res.Phases[i].Name, pr.MBps,
			float64(pr.MeanLatency)/1e6, float64(pr.P99Latency)/1e6, perReq)
	}
	for _, rec := range res.Recoveries {
		if rec.Err != nil {
			return rec.Err
		}
		fmt.Fprintf(w, "recovery: %d PGs, %.1f MiB pulled, %.1f MiB rebuilt, %v simulated\n",
			rec.Stats.PGsRepaired, float64(rec.Stats.BytesPulled)/(1<<20),
			float64(rec.Stats.BytesRebuilt)/(1<<20), rec.Stats.DurationSimulated)
	}
	fmt.Fprintln(w, "events:")
	for _, ev := range res.Events {
		fmt.Fprintf(w, "  %v\n", ev)
	}
	return nil
}

// runDegrade composes the gray-failure timeline: a foreground reader runs
// healthy, then the victim OSD starts serving slow and/or flaky while
// staying up, and (with -clear) has its health restored at the last phase
// boundary. The per-phase gray counters show the tail-tolerant path
// reacting: timeouts, hedges, and — if the fault persists — a breaker
// eject.
func runDegrade(w io.Writer, cluster *ecarray.Cluster, phase time.Duration, victim int, latMult, errRate float64, clear bool) error {
	img, err := cluster.CreateImage("data", "ecctl", 2<<30)
	if err != nil {
		return err
	}
	img.Prefill()
	deg := ecarray.OSDDegradation{Device: ecarray.DeviceDegradation{
		LatencyMultiplier: latMult,
		ErrorProb:         errRate,
	}}
	sc := ecarray.NewScenario(cluster).
		AddJob(img, ecarray.Job{
			Name: "fg", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
			BlockSize: 4 << 10, QueueDepth: 64, Duration: 3 * phase, Seed: 1,
		}).
		Phase("healthy", phase).
		Phase("gray", phase).
		Phase("recovered", phase).
		At(phase, ecarray.DegradeOSD(victim, deg))
	if clear {
		sc.At(2*phase, ecarray.RestoreOSDHealth(victim))
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}

	fg := res.Job("fg")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %9s %7s %7s\n",
		"phase", "MB/s", "lat ms", "p99 ms", "timeouts", "hedges", "ejects")
	for i, pr := range fg.Phases {
		g := res.PhaseGray[i]
		fmt.Fprintf(w, "%-12s %10.1f %10.2f %10.2f %9d %7d %7d\n",
			res.Phases[i].Name, pr.MBps,
			float64(pr.MeanLatency)/1e6, float64(pr.P99Latency)/1e6,
			g.ShardTimeouts, g.HedgesIssued, g.Ejects)
	}
	h := cluster.OSDHealth(victim)
	fmt.Fprintf(w, "osd%d health: score=%.3f ewma-lat=%v samples=%d slow=%v ejected=%v degraded=%v\n",
		victim, h.Score, h.EWMALatency, h.Samples, h.Slow, h.Ejected, h.Degraded)
	fmt.Fprintf(w, "gray totals: %+v\n", res.GrayMetrics)
	fmt.Fprintln(w, "events:")
	for _, ev := range res.Events {
		fmt.Fprintf(w, "  %v\n", ev)
	}
	return nil
}

// actingOfPG reflects a PG's acting set by probing object names until one
// lands on the PG (display helper; acting sets are per-PG).
func actingOfPG(pool *ecarray.Pool, pg int) []int {
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("probe-%d", i)
		if pool.PGFor(name) == pg {
			return pool.ActingSet(name)
		}
	}
	return nil
}

func hostsOf(c *ecarray.Cluster, osds []int) string {
	var hosts []string
	for _, id := range osds {
		hosts = append(hosts, c.OSDs()[id].Node.Name)
	}
	return strings.Join(hosts, ",")
}

func parseProfile(s string) (ecarray.Profile, error) {
	switch s {
	case "3rep":
		return ecarray.ProfileReplicated(3), nil
	case "rs6.3":
		return ecarray.ProfileEC(6, 3), nil
	case "rs10.4":
		return ecarray.ProfileEC(10, 4), nil
	}
	return ecarray.Profile{}, fmt.Errorf("unknown profile %q", s)
}

func failed(ew io.Writer, err error) int {
	fmt.Fprintln(ew, "ecctl:", err)
	return 1
}
