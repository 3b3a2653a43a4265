package core

import (
	"fmt"
	"reflect"
	"testing"

	"ecarray/internal/sim"
)

// runDeterminismWorkload builds a carry-mode EC cluster with the given
// codec concurrency, runs a fixed mixed read/write sequence, and returns
// the cluster metrics plus a digest of the bytes read back.
func runDeterminismWorkload(t *testing.T, codecConc int) (Metrics, string) {
	t.Helper()
	m, digest, _, _, _ := runDeterminismWorkloadOn(t, codecConc)
	return m, digest
}

// runDeterminismWorkloadOn is runDeterminismWorkload that also hands back
// the engine, cluster and pool it ran on.
func runDeterminismWorkloadOn(t *testing.T, codecConc int) (Metrics, string, *sim.Engine, *Cluster, *Pool) {
	t.Helper()
	cfg := smallConfig(true)
	cfg.CodecConcurrency = codecConc
	e, c := newTestCluster(t, cfg)
	pool, err := c.CreatePool("det", ProfileEC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	runOp(t, e, c, func(p *sim.Proc) {
		// Sub-stripe and stripe-aligned writes across a few objects, then
		// reads back, exercising encode, update and reconstruct-free reads.
		for i := 0; i < 4; i++ {
			obj := fmt.Sprintf("obj-%d", i)
			if err := pool.WriteObject(p, obj, 0, pattern(64<<10, byte(i)), 64<<10); err != nil {
				t.Errorf("write %s: %v", obj, err)
				return
			}
			if err := pool.WriteObject(p, obj, 5000, pattern(3000, byte(i+9)), 3000); err != nil {
				t.Errorf("overwrite %s: %v", obj, err)
				return
			}
		}
		sum := uint64(14695981039346656037)
		for i := 0; i < 4; i++ {
			obj := fmt.Sprintf("obj-%d", i)
			data, err := pool.ReadObject(p, obj, 0, 64<<10)
			if err != nil {
				t.Errorf("read %s: %v", obj, err)
				return
			}
			for _, b := range data {
				sum ^= uint64(b)
				sum *= 1099511628211
			}
		}
		digest = fmt.Sprintf("%016x", sum)
	})
	return c.Metrics(), digest, e, c, pool
}

// TestMetricsDeterministicUnderCodecConcurrency is the determinism
// regression the parallel codec must uphold: the same seed and config
// yield identical simulated metrics and identical payload bytes across
// runs, even when the codec shards real encode/decode work over multiple
// goroutines (concurrency > 1), and the result must also match the serial
// codec's.
func TestMetricsDeterministicUnderCodecConcurrency(t *testing.T) {
	m1, d1 := runDeterminismWorkload(t, 4)
	m2, d2 := runDeterminismWorkload(t, 4)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("metrics differ across identical runs with codec concurrency 4:\n%+v\n%+v", m1, m2)
	}
	if d1 != d2 {
		t.Fatalf("payload digest differs across identical runs: %s vs %s", d1, d2)
	}
	mSerial, dSerial := runDeterminismWorkload(t, 1)
	if !reflect.DeepEqual(m1, mSerial) {
		t.Fatalf("metrics differ between parallel and serial codec:\n%+v\n%+v", m1, mSerial)
	}
	if d1 != dSerial {
		t.Fatalf("payload digest differs between parallel and serial codec: %s vs %s", d1, dSerial)
	}
}

// fnvDigest folds a string through FNV-1a, matching the payload digest the
// determinism workload computes.
func fnvDigest(s string) string {
	sum := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		sum ^= uint64(s[i])
		sum *= 1099511628211
	}
	return fmt.Sprintf("%016x", sum)
}

// goldenRun is what the engine golden pins of one determinism run: a digest
// of everything simulated that the run exposes, and the engine's event count.
type goldenRun struct {
	digest string
	events uint64
}

// runGoldenWorkload runs the determinism workload, drains the engine, reads
// one more range on the drained engine (reusing parked workers; the range
// spans a cached stripe and one that must be fetched), and folds the
// metrics, the private network's own counters, the payload digest and the
// post-drain bytes into one digest. Metrics print with %#v so no Stringer
// can hide a field.
func runGoldenWorkload(t *testing.T, codecConc int) goldenRun {
	t.Helper()
	m, payload, e, c, pool := runDeterminismWorkloadOn(t, codecConc)
	e.Drain()
	var post []byte
	e.RunProc("post-drain", func(p *sim.Proc) {
		var err error
		if post, err = pool.ReadObject(p, "obj-1", 60000, 9000); err != nil {
			t.Errorf("post-drain read: %v", err)
		}
	})
	net := c.PrivateNetwork()
	return goldenRun{
		digest: fnvDigest(fmt.Sprintf("%#v|net=%d/%d/%d|payload=%s|post=%s|final=%#v",
			m, net.Bytes(), net.Messages(), net.LoopbackBytes(), payload, fnvDigest(string(post)), c.Metrics())),
		events: e.Executed(),
	}
}

// Golden values of the determinism workload. Any change to the digest means
// simulated behaviour shifted — event ordering, timing, traffic or bytes.
// goldenEngineEvents counts dispatched engine events; it moves when the
// simulator spends a different number of events on the same behaviour.
// Re-capture deliberately only when such a change is intended.
const (
	goldenEngineDigest = "7a59ca2d18d14d9f"
	goldenEngineEvents = 1568
)

// TestGoldenEngineDigest pins the determinism workload's simulated output
// and event count, at codec concurrency 1 and 4 alike.
func TestGoldenEngineDigest(t *testing.T) {
	for _, conc := range []int{1, 4} {
		g := runGoldenWorkload(t, conc)
		if g.digest != goldenEngineDigest {
			t.Errorf("conc %d: digest = %s, want golden %s", conc, g.digest, goldenEngineDigest)
		}
		if g.events != goldenEngineEvents {
			t.Errorf("conc %d: engine events = %d, want golden %d", conc, g.events, goldenEngineEvents)
		}
	}
}

// TestEncodeCostPerKBOverride pins the measured-throughput override: when
// EncodeMBps is set the derived per-KiB cost must follow it, and the
// fallback constant must apply otherwise.
func TestEncodeCostPerKBOverride(t *testing.T) {
	cm := DefaultCostModel()
	if cm.EncodeCostPerKB() != cm.EncodePerKB {
		t.Fatalf("without calibration EncodeCostPerKB = %v, want %v", cm.EncodeCostPerKB(), cm.EncodePerKB)
	}
	cm.EncodeMBps = 1024 // 1 GiB/s → 1 KiB per microsecond
	got := cm.EncodeCostPerKB()
	if got < 900 || got > 1100 { // ~1µs in time.Duration units
		t.Fatalf("EncodeCostPerKB at 1 GiB/s = %v, want ≈1µs", got)
	}
	cm.EncodeMBps = 2048
	if cm.EncodeCostPerKB() >= got {
		t.Fatal("doubling measured throughput must shrink the per-KiB cost")
	}
}
