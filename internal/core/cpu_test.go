package core

import (
	"testing"
	"time"

	"ecarray/internal/sim"
)

func newTestCPU(cores int) (*sim.Engine, *CPU) {
	e := sim.NewEngine()
	cm := DefaultCostModel()
	return e, newCPU(e, "test", cores, &cm)
}

func TestCPUExecAccounting(t *testing.T) {
	e, cpu := newTestCPU(4)
	e.Go("w", func(p *sim.Proc) {
		cpu.Exec(p, 3*time.Millisecond, time.Millisecond)
	})
	e.Run()
	user, kern := cpu.BusySeconds()
	if user != 0.003 || kern != 0.001 {
		t.Fatalf("busy = %v/%v, want 3ms/1ms", user, kern)
	}
	if cpu.ContextSwitches() != DefaultCostModel().ContextSwitchesPerExec {
		t.Fatalf("ctx = %d", cpu.ContextSwitches())
	}
	if e.Now() != sim.Time(4*time.Millisecond) {
		t.Fatalf("Exec must occupy virtual time: %v", e.Now())
	}
}

func TestCPUZeroBurstFree(t *testing.T) {
	e, cpu := newTestCPU(2)
	e.Go("w", func(p *sim.Proc) { cpu.Exec(p, 0, 0) })
	e.Run()
	if cpu.ContextSwitches() != 0 || e.Now() != 0 {
		t.Fatal("zero burst must cost nothing")
	}
}

func TestCPUNegativePanics(t *testing.T) {
	e, cpu := newTestCPU(1)
	e.Go("w", func(p *sim.Proc) { cpu.Exec(p, -time.Second, 0) })
	defer func() {
		if recover() == nil {
			t.Fatal("negative burst must panic")
		}
	}()
	e.Run()
}

func TestCPUCoreContention(t *testing.T) {
	// Two 1ms bursts on one core must serialize to 2ms.
	e, cpu := newTestCPU(1)
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *sim.Proc) { cpu.Exec(p, time.Millisecond, 0) })
	}
	e.Run()
	if e.Now() != sim.Time(2*time.Millisecond) {
		t.Fatalf("duration %v, want 2ms on one core", e.Now())
	}
}

func TestCPUUtilizationWindow(t *testing.T) {
	e, cpu := newTestCPU(2)
	e.Go("w", func(p *sim.Proc) { cpu.Exec(p, 10*time.Millisecond, 0) })
	e.Run()
	// 10ms busy on one of two cores: 10ms of user core-time.
	user, kern := cpu.BusySeconds()
	if user < 0.0099 || user > 0.0101 || kern != 0 {
		t.Fatalf("busy = %v/%v s, want 0.01/0", user, kern)
	}
	cpu.ResetStats()
	user, kern = cpu.BusySeconds()
	if user != 0 || kern != 0 {
		t.Fatal("reset must zero the window")
	}
	if cpu.Cores() != 2 {
		t.Fatal("Cores accessor wrong")
	}
}

func TestTwoReplicaPool(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, err := c.CreatePool("data", ProfileReplicated(2))
	if err != nil {
		t.Fatal(err)
	}
	obj := "two-rep"
	payload := pattern(8192, 9)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := pl.WriteObject(p, obj, 0, payload, 8192); err != nil {
			t.Error(err)
		}
	})
	if got := len(pl.ActingSet(obj)); got != 2 {
		t.Fatalf("acting set size = %d, want 2", got)
	}
	m := c.Metrics()
	if m.DeviceWriteBytes < 2*8192 || m.DeviceWriteBytes > 8*8192 {
		t.Fatalf("2-rep write device bytes = %d", m.DeviceWriteBytes)
	}
}

func TestECSingleParityPool(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, err := c.CreatePool("raid5", ProfileEC(4, 1)) // RAID-5-like
	if err != nil {
		t.Fatal(err)
	}
	img, _ := c.CreateImage("raid5", "img", 4<<20)
	payload := pattern(100_000, 13)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})
	// One failure is tolerable, two are not.
	c.MarkOSDOut(pl.ActingSet(img.ObjectName(0))[0])
	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Errorf("RAID-5-like degraded read mismatch at %d", i)
				return
			}
		}
	})
	c.MarkOSDOut(pl.ActingSet(img.ObjectName(0))[0])
	runOp(t, e, c, func(p *sim.Proc) {
		if _, err := img.Read(p, 0, 4096); err == nil {
			t.Error("two failures with m=1 must refuse reads")
		}
	})
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		e, c := newTestCluster(t, smallConfig(false))
		pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
		runOp(t, e, c, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				pl.WriteObject(p, "obj", int64(i)*4096, nil, 4096) //nolint:errcheck
			}
		})
		m := c.Metrics()
		return m.DeviceWriteBytes, m.ContextSwitches
	}
	w1, c1 := run()
	w2, c2 := run()
	if w1 != w2 || c1 != c2 {
		t.Fatalf("cluster runs diverged: (%d,%d) vs (%d,%d)", w1, c1, w2, c2)
	}
}

func TestMetricsObjectsCount(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(false))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	runOp(t, e, c, func(p *sim.Proc) {
		pl.WriteObject(p, "a", 0, nil, 4096) //nolint:errcheck
		pl.WriteObject(p, "b", 0, nil, 4096) //nolint:errcheck
	})
	// Each EC object materializes k+m shard objects across OSD stores.
	if got := c.Metrics().Objects; got != 18 {
		t.Fatalf("store objects = %d, want 18 (2 objects x 9 shards)", got)
	}
}
