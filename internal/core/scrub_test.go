package core

import (
	"bytes"
	"testing"

	"ecarray/internal/sim"
)

// TestScrubDetectsAndRepairsECLatentError: an injected silent corruption on
// a data shard is visible to reads (nothing checks it inline), and a deep
// scrub detects it through the verify sweep and repairs it by
// reconstruction.
func TestScrubDetectsAndRepairsECLatentError(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(300_000, 45)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	obj := img.ObjectName(0)
	if err := pl.InjectLatentError(obj, 1); err != nil {
		t.Fatal(err)
	}
	if pl.LatentErrors() != 1 {
		t.Fatalf("latent errors = %d, want 1", pl.LatentErrors())
	}
	// The error is silent: reads pull the corrupted data chunk as-is.
	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil {
			t.Error(err)
			return
		}
		if bytes.Equal(got, payload) {
			t.Error("corrupted shard did not change the read: injection had no effect")
		}
	})

	var st ScrubStats
	runOp(t, e, c, func(p *sim.Proc) {
		var err error
		st, err = pl.Scrub(p)
		if err != nil {
			t.Error(err)
		}
	})
	if st.ErrorsFound != 1 || st.ShardsRepaired != 1 {
		t.Fatalf("scrub found %d errors, repaired %d shards, want 1/1 (%+v)",
			st.ErrorsFound, st.ShardsRepaired, st)
	}
	if st.ObjectsScanned == 0 || st.BytesScanned == 0 || st.BytesRepaired == 0 {
		t.Fatalf("empty scrub stats: %+v", st)
	}
	if pl.LatentErrors() != 0 {
		t.Fatalf("latent errors = %d after scrub, want 0", pl.LatentErrors())
	}
	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("post-scrub read mismatch (%v)", err)
		}
	})
}

// TestScrubRepairsReplicatedLatentError: a corrupted non-primary replica is
// invisible to reads (they hit the primary), found by the scrub sweep, and
// re-copied from a clean replica.
func TestScrubRepairsReplicatedLatentError(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("rep", ProfileReplicated(3))
	img, _ := c.CreateImage("rep", "img", 8<<20)
	payload := pattern(200_000, 71)

	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})

	obj := img.ObjectName(0)
	if err := pl.InjectLatentError(obj, 1); err != nil {
		t.Fatal(err)
	}
	// Truly latent: the primary (position 0) serves reads, so nothing
	// notices the bad replica.
	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read through the primary must be unaffected (%v)", err)
		}
	})

	var st ScrubStats
	runOp(t, e, c, func(p *sim.Proc) {
		var err error
		st, err = pl.Scrub(p)
		if err != nil {
			t.Error(err)
		}
	})
	if st.ErrorsFound != 1 || st.ShardsRepaired != 1 {
		t.Fatalf("scrub found %d errors, repaired %d replicas, want 1/1", st.ErrorsFound, st.ShardsRepaired)
	}

	// Fail the other replicas so reads can only come from the repaired copy.
	acting := pl.ActingSet(obj)
	repaired := acting[1]
	for _, osd := range acting {
		if osd != repaired {
			c.MarkOSDOut(osd)
		}
	}
	runOp(t, e, c, func(p *sim.Proc) {
		got, err := img.Read(p, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read from the repaired replica mismatch (%v)", err)
		}
	})
}

// TestScrubInjectValidation: injection refuses unknown objects, out-of-range
// positions and non-live positions.
func TestScrubInjectValidation(t *testing.T) {
	e, c := newTestCluster(t, smallConfig(true))
	pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
	img, _ := c.CreateImage("ec", "img", 8<<20)
	payload := pattern(100_000, 9)
	runOp(t, e, c, func(p *sim.Proc) {
		if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
	})
	obj := img.ObjectName(0)

	if err := pl.InjectLatentError("no-such-object", 0); err == nil {
		t.Error("injection on a missing object must fail")
	}
	if err := pl.InjectLatentError(obj, 9); err == nil {
		t.Error("injection beyond the shard width must fail")
	}
	if err := pl.InjectLatentError(obj, -1); err == nil {
		t.Error("injection at a negative position must fail")
	}
	c.MarkOSDOut(pl.ActingSet(obj)[0])
	if err := pl.InjectLatentError(obj, 0); err == nil {
		t.Error("injection on a non-live position must fail")
	}
	if pl.LatentErrors() != 0 {
		t.Fatalf("rejected injections recorded %d latent errors", pl.LatentErrors())
	}
}

// repairTestConfig is smallConfig with devices just large enough for one
// object: the repair tests below build several clusters each, and device
// mapping tables dominate a test cluster's memory (the race detector
// multiplies it).
func repairTestConfig() Config {
	cfg := smallConfig(true)
	cfg.DeviceCapacity = 256 << 20
	return cfg
}

// TestScrubRepairOfPrimaryShardIsLocal: a latent error on the acting
// primary's own shard is repaired into the primary's own store, like every
// other write the primary makes to itself — the repair moves nothing over
// the private network, wire or loopback, beyond what the verify sweep of a
// clean object already costs.
func TestScrubRepairOfPrimaryShardIsLocal(t *testing.T) {
	payload := pattern(300_000, 45)
	scrub := func(inject bool) (loopback, msgs, wire int64) {
		e, c := newTestCluster(t, repairTestConfig())
		pl, _ := c.CreatePool("ec", ProfileEC(6, 3))
		img, _ := c.CreateImage("ec", "img", 8<<20)
		runOp(t, e, c, func(p *sim.Proc) {
			if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
				t.Error(err)
			}
		})
		if inject {
			if err := pl.InjectLatentError(img.ObjectName(0), 0); err != nil {
				t.Fatal(err)
			}
		}
		net := c.PrivateNetwork()
		net.ResetStats()
		runOp(t, e, c, func(p *sim.Proc) {
			st, err := pl.Scrub(p)
			if err != nil {
				t.Error(err)
			}
			if repaired := st.ShardsRepaired == 1; repaired != inject {
				t.Errorf("scrub repaired %d shards with inject=%v", st.ShardsRepaired, inject)
			}
		})
		loopback, msgs, wire = net.LoopbackBytes(), net.Messages(), net.Bytes()
		runOp(t, e, c, func(p *sim.Proc) {
			got, err := img.Read(p, 0, int64(len(payload)))
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("post-scrub read mismatch (%v)", err)
			}
		})
		return
	}
	cleanLoop, cleanMsgs, cleanWire := scrub(false)
	loop, msgs, wire := scrub(true)
	if loop != cleanLoop || msgs != cleanMsgs || wire != cleanWire {
		t.Fatalf("repairing the primary's own shard moved data between OSDs: loopback %d B, %d msgs, %d wire B; verify sweep alone: %d B, %d msgs, %d B",
			loop, msgs, wire, cleanLoop, cleanMsgs, cleanWire)
	}
}

// TestRepairClearsLatentRecord: a latent-error record describes bytes on one
// device. When repair rewrites that position's copy of the object in full —
// Recover onto a replacement after the holder failed, or Backfill after the
// holder returned diverged — the record goes with the bytes, so the next
// scrub finds a clean object. An OSD that leaves and returns undiverged
// still holds the bad bytes, and the record stays.
func TestRepairClearsLatentRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile Profile
		repair  string
	}{
		{"ec/recover", ProfileEC(6, 3), "recover"},
		{"ec/backfill", ProfileEC(6, 3), "backfill"},
		{"replicated/recover", ProfileReplicated(3), "recover"},
		{"replicated/backfill", ProfileReplicated(3), "backfill"},
		{"ec/undiverged-return", ProfileEC(6, 3), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newTestCluster(t, repairTestConfig())
			pl, _ := c.CreatePool("p", tc.profile)
			img, _ := c.CreateImage("p", "img", 8<<20)
			payload := pattern(300_000, 45)
			write := func() {
				runOp(t, e, c, func(p *sim.Proc) {
					if err := img.Write(p, 0, payload, int64(len(payload))); err != nil {
						t.Error(err)
					}
				})
			}
			write()
			obj := img.ObjectName(0)
			if err := pl.InjectLatentError(obj, 1); err != nil {
				t.Fatal(err)
			}
			holder := pl.ActingSet(obj)[1]
			c.MarkOSDOut(holder)
			wantLatent := 0
			switch tc.repair {
			case "recover":
				runOp(t, e, c, func(p *sim.Proc) {
					if _, err := pl.Recover(p); err != nil {
						t.Error(err)
					}
				})
			case "backfill":
				write() // the object diverges while the holder is out
				c.MarkOSDIn(holder)
				runOp(t, e, c, func(p *sim.Proc) {
					if st, err := pl.Backfill(p); err != nil || st.ObjectsSynced == 0 {
						t.Errorf("backfill synced %d objects (%v)", st.ObjectsSynced, err)
					}
				})
			default:
				c.MarkOSDIn(holder)
				wantLatent = 1
			}
			if got := pl.LatentErrors(); got != wantLatent {
				t.Fatalf("latent errors after %q = %d, want %d", tc.repair, got, wantLatent)
			}
			runOp(t, e, c, func(p *sim.Proc) {
				st, err := pl.Scrub(p)
				if err != nil {
					t.Error(err)
				}
				if st.ErrorsFound != wantLatent || st.ShardsRepaired != wantLatent {
					t.Errorf("scrub found %d errors and repaired %d shards, want %d: %+v",
						st.ErrorsFound, st.ShardsRepaired, wantLatent, st)
				}
			})
			runOp(t, e, c, func(p *sim.Proc) {
				got, err := img.Read(p, 0, int64(len(payload)))
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("read after repair and scrub mismatch (%v)", err)
				}
			})
		})
	}
}
