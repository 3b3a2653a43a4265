package ecarray_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ecarray"
)

func TestPublicAPIQuickPath(t *testing.T) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cfg.CarryData = true

	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreatePool("data", ecarray.ProfileEC(6, 3)); err != nil {
		t.Fatal(err)
	}
	img, err := cluster.CreateImage("data", "vol", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("ecarray!"), 8192)
	var got []byte
	cluster.Engine().RunProc("api", func(p *ecarray.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
			return
		}
		got, err = img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("public API round trip failed")
	}
	cluster.Stop()
	cluster.Engine().Run()
}

func TestPublicRSFacade(t *testing.T) {
	code, err := ecarray.NewRS(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello erasure coded world")
	shards := make([][]byte, 9)
	for i := range shards {
		shards[i] = make([]byte, 5)
		if i < 5 {
			copy(shards[i], msg[5*i:])
		}
	}
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[7] = nil, nil
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if out := bytes.Join(shards[:6], nil)[:len(msg)]; !bytes.Equal(out, msg) {
		t.Fatalf("facade reconstruct failed: %q", out)
	}
}

func TestRunJobFacade(t *testing.T) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreatePool("data", ecarray.ProfileReplicated(3)); err != nil {
		t.Fatal(err)
	}
	img, err := cluster.CreateImage("data", "vol", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecarray.RunJob(cluster, img, ecarray.Job{
		Name: "api", Op: ecarray.OpWrite, Pattern: ecarray.PatternRandom,
		BlockSize: 8192, QueueDepth: 32, Duration: 300 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.MBps == 0 {
		t.Fatalf("empty result %+v", res)
	}
	if !strings.Contains(res.String(), "MB/s") {
		t.Fatal("result stringer wrong")
	}
}

func TestSchemesAndFigureIDs(t *testing.T) {
	if len(ecarray.Schemes()) != 3 {
		t.Fatal("want 3 schemes")
	}
	ids := ecarray.FigureIDs()
	if len(ids) != 17 || ids[0] != "fig1" || ids[len(ids)-1] != "fig20" {
		t.Fatalf("figure ids = %v", ids)
	}
	if len(ecarray.ScenarioIDs()) == 0 {
		t.Fatal("no scenario experiments exposed")
	}
}

// TestScenarioFacade drives the composed-experiment path through the
// public API: two concurrent jobs on different pools, a phase timeline, an
// OSD failure and a recovery, all in one deterministic run.
func TestScenarioFacade(t *testing.T) {
	cfg := ecarray.DefaultConfig()
	cfg.DeviceCapacity = 2 << 30
	cfg.PGsPerPool = 64
	cluster, err := ecarray.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreatePool("ec", ecarray.ProfileEC(6, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreatePool("rep", ecarray.ProfileReplicated(3)); err != nil {
		t.Fatal(err)
	}
	ecImg, err := cluster.CreateImage("ec", "a", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	repImg, err := cluster.CreateImage("rep", "b", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	ecImg.Prefill()
	const phase = 200 * time.Millisecond
	res, err := ecarray.NewScenario(cluster).
		AddJob(ecImg, ecarray.Job{
			Name: "reader", Op: ecarray.OpRead, Pattern: ecarray.PatternRandom,
			BlockSize: 4096, QueueDepth: 16, Duration: 2 * phase, Seed: 1,
		}).
		AddJob(repImg, ecarray.Job{
			Name: "writer", Op: ecarray.OpWrite, Pattern: ecarray.PatternRandom,
			BlockSize: 4096, QueueDepth: 8, Duration: 2 * phase, Seed: 2,
		}).
		Phase("healthy", phase).
		Phase("degraded", phase).
		At(phase, ecarray.FailOSD(5)).
		At(phase, ecarray.StartRecovery("ec")).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	cluster.Engine().Drain()
	if len(res.Jobs) != 2 || len(res.Phases) != 2 {
		t.Fatalf("result shape: %d jobs, %d phases", len(res.Jobs), len(res.Phases))
	}
	for _, name := range []string{"reader", "writer"} {
		jr := res.Job(name)
		if jr == nil || jr.Result.Ops == 0 || len(jr.Phases) != 2 {
			t.Fatalf("job %s result incomplete: %+v", name, jr)
		}
		if jr.Result.Errors != 0 {
			t.Fatalf("job %s errored %d times", name, jr.Result.Errors)
		}
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Err != nil {
		t.Fatalf("recoveries = %+v", res.Recoveries)
	}
	if len(res.Events) == 0 {
		t.Fatal("event log empty")
	}
	if !strings.Contains(res.String(), "2 job(s)") {
		t.Fatalf("scenario stringer: %q", res.String())
	}
}

func TestBenchPresets(t *testing.T) {
	for _, opt := range []ecarray.BenchOptions{
		ecarray.TinyBench(), ecarray.QuickBench(), ecarray.PaperBench(),
	} {
		if _, err := ecarray.NewSuite(opt); err != nil {
			t.Fatal(err)
		}
	}
}
