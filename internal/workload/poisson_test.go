package workload

import (
	"reflect"
	"testing"
	"time"

	"ecarray/internal/core"
	"ecarray/internal/sim"
)

// carryCluster builds a small carry-mode EC cluster (real bytes, real
// codec) with the given codec concurrency — the configuration where
// nondeterminism would hide if the arrival process leaked goroutine
// scheduling into the simulation.
func carryCluster(t *testing.T, conc int) (*core.Cluster, *core.Image) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.StorageNodes = 2
	cfg.OSDsPerNode = 5
	cfg.DeviceCapacity = 1 << 30
	cfg.Device.Capacity = cfg.DeviceCapacity
	cfg.PGsPerPool = 16
	cfg.Store.WALRegion = 32 << 20
	cfg.CarryData = true
	cfg.CodecConcurrency = conc
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	c, err := core.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("p", core.ProfileEC(4, 2)); err != nil {
		t.Fatal(err)
	}
	img, err := c.CreateImage("p", "img", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return c, img
}

func poissonJob() Job {
	return Job{
		Name: "poisson", Op: Write, Pattern: Random, BlockSize: 16 << 10,
		Rate: 2000, Arrival: ArrivalPoisson,
		Duration: 300 * time.Millisecond, Seed: 11,
	}
}

func TestArrivalValidation(t *testing.T) {
	c, img := testCluster(t, core.ProfileReplicated(3), 1<<30)
	// Poisson arrivals require open-loop pacing.
	if _, err := Run(c, img, Job{
		Op: Write, Pattern: Random, BlockSize: 4096, QueueDepth: 8,
		Arrival: ArrivalPoisson, Duration: 100 * time.Millisecond,
	}); err == nil {
		t.Fatal("Poisson arrivals without Rate accepted")
	}
	// Unknown arrival processes are rejected.
	if _, err := Run(c, img, Job{
		Op: Write, Pattern: Random, BlockSize: 4096, Rate: 100,
		Arrival: Arrival(9), Duration: 100 * time.Millisecond,
	}); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
	if ArrivalFixed.String() != "fixed" || ArrivalPoisson.String() != "poisson" {
		t.Fatal("arrival strings wrong")
	}
}

// TestPoissonDeterministicAcrossCodecConcurrency is the differential
// determinism regression for the new arrival process: the same seed and
// job produce byte-identical results across runs and across codec
// concurrency — the Poisson gaps come from the job's seeded stream, drawn
// in arrival order by the single dispatcher, never from scheduling.
func TestPoissonDeterministicAcrossCodecConcurrency(t *testing.T) {
	run := func(conc int) Result {
		c, img := carryCluster(t, conc)
		res, err := Run(c, img, poissonJob())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(4)
	b := run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical Poisson runs differ:\n%+v\n%+v", a, b)
	}
	serial := run(1)
	if !reflect.DeepEqual(a, serial) {
		t.Fatalf("Poisson run differs between codec concurrency 4 and 1:\n%+v\n%+v", a, serial)
	}
	if a.Ops == 0 || a.MBps <= 0 {
		t.Fatalf("empty Poisson result: %+v", a)
	}
}

// TestPoissonDiffersFromFixed pins that the knob actually changes the
// arrival process: exponential gaps produce a different completion
// profile than fixed pacing at the same mean rate.
func TestPoissonDiffersFromFixed(t *testing.T) {
	run := func(a Arrival) Result {
		c, img := carryCluster(t, 1)
		job := poissonJob()
		job.Arrival = a
		res, err := Run(c, img, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := run(ArrivalFixed)
	poisson := run(ArrivalPoisson)
	if fixed.Ops == 0 || poisson.Ops == 0 {
		t.Fatalf("empty results: fixed %d ops, poisson %d ops", fixed.Ops, poisson.Ops)
	}
	if reflect.DeepEqual(fixed, poisson) {
		t.Fatal("Poisson arrivals produced a byte-identical result to fixed pacing")
	}
	// Both pace to the same mean rate, so op counts must be in the same
	// ballpark (Poisson varies, it doesn't change the mean).
	ratio := float64(poisson.Ops) / float64(fixed.Ops)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("Poisson op count %d wildly off fixed %d", poisson.Ops, fixed.Ops)
	}
}
