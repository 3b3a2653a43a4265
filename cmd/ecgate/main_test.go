package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ecarray/internal/qos"
	"ecarray/internal/service"
)

// boot builds a gateway from a command line exactly as main does (minus
// -listen and the listener).
func boot(args ...string) (*service.Gateway, error) {
	fs := flag.NewFlagSet("ecgate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return newGateway(fs, args, slog.New(slog.NewJSONHandler(io.Discard, nil)))
}

// TestGatewayWiringPerBackend boots the binary's wiring on each backend
// and drives the object lifecycle through GateClient over HTTP, with the
// kill and the heal going through the one fault path — POST
// /v1/faults/{osd} — which must behave the same whatever is behind it.
func TestGatewayWiringPerBackend(t *testing.T) {
	// Six shard daemons as ecstored builds them, alternating its two
	// backends.
	var osdURLs []string
	for i := 0; i < 6; i++ {
		var store service.ShardStore = service.NewMemStore(i)
		if i%2 == 1 {
			vc, err := service.NewSimCluster(service.SimClusterConfig{Hosts: 1, OSDsPerHost: 1, DeviceBytes: 64 << 20, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			store = vc.Stores()[0]
		}
		srv := httptest.NewServer(service.NewOSDServer(i, store, nil).Handler())
		t.Cleanup(srv.Close)
		osdURLs = append(osdURLs, srv.URL)
	}
	for _, args := range [][]string{
		{"-backend", "sim", "-device-mb", "64"},
		{"-backend", "mem", "-tenants", "gold:3,silver:1"},
		{"-backend", "osd", "-osd-urls", strings.Join(osdURLs, ","), "-meta-dir", t.TempDir()},
	} {
		t.Run(args[1], func(t *testing.T) {
			gw, err := boot(args...)
			if err != nil {
				t.Fatalf("boot %v: %v", args, err)
			}
			t.Cleanup(func() { gw.Close() })
			srv := httptest.NewServer(gw.Handler())
			t.Cleanup(srv.Close)
			gc := service.NewGateClient(srv.URL)
			ctx := context.Background()

			st, err := gc.Status(ctx)
			if err != nil || st.Backend != args[1] || st.Scheme != "RS(4,2)" || st.OSDs != 6 {
				t.Fatalf("status %+v, err %v", st, err)
			}

			// Several stripes plus a ragged tail.
			payload := make([]byte, 1<<20+12345)
			rand.New(rand.NewSource(42)).Read(payload)
			const key = "wiring/obj-1"
			oi, err := gc.PutObject(ctx, key, payload)
			if err != nil || oi.Written != oi.Shards {
				t.Fatalf("put: %+v, err %v", oi, err)
			}
			got, degraded, err := gc.GetObject(ctx, key)
			if err != nil || degraded || !bytes.Equal(got, payload) {
				t.Fatalf("healthy get: err=%v degraded=%v match=%v", err, degraded, bytes.Equal(got, payload))
			}

			// Cut off the OSD holding data shard 0; the read reconstructs.
			victim := oi.OSDs[0]
			if err := gc.SetFault(ctx, victim, service.FaultSpec{Partition: true}); err != nil {
				t.Fatalf("partition osd %d: %v", victim, err)
			}
			got, degraded, err = gc.GetObject(ctx, key)
			if err != nil || !degraded || !bytes.Equal(got, payload) {
				t.Fatalf("degraded get: err=%v degraded=%v match=%v", err, degraded, bytes.Equal(got, payload))
			}
			if err := gc.SetFault(ctx, victim, service.FaultSpec{}); err != nil {
				t.Fatalf("heal osd %d: %v", victim, err)
			}

			if err := gc.DeleteObject(ctx, key); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if _, _, err := gc.GetObject(ctx, key); !errors.Is(err, service.ErrNotFound) {
				t.Fatalf("get after delete: got %v, want ErrNotFound", err)
			}

			// Every stripe geometry -k 4 -chunk 65536 produces (the sizes of
			// service.TestStripeGeometry), healthy and with data shard 0
			// cut off: each backend, SimCluster included, stores and returns
			// shards that are not a multiple of -chunk long.
			const stripe = 4 * 64 << 10
			for _, size := range []int{0, 1, 511, 512, 513, 8 << 10, stripe - 1, stripe, stripe + 1, 300 << 10, 3*stripe + 7} {
				key := fmt.Sprintf("wiring/geo-%d", size)
				data := payload[:size]
				oi, err := gc.PutObject(ctx, key, data)
				if err != nil || oi.Written != oi.Shards {
					t.Fatalf("put %d bytes: %+v, err %v", size, oi, err)
				}
				if err := gc.SetFault(ctx, oi.OSDs[0], service.FaultSpec{Partition: true}); err != nil {
					t.Fatal(err)
				}
				got, degraded, err := gc.GetObject(ctx, key)
				if err != nil || degraded != (size > 0) || !bytes.Equal(got, data) {
					t.Fatalf("degraded get of %d bytes: err=%v degraded=%v match=%v", size, err, degraded, bytes.Equal(got, data))
				}
				if err := gc.SetFault(ctx, oi.OSDs[0], service.FaultSpec{}); err != nil {
					t.Fatal(err)
				}
				got, degraded, err = gc.GetObject(ctx, key)
				if err != nil || degraded || !bytes.Equal(got, data) {
					t.Fatalf("healthy get of %d bytes: err=%v degraded=%v match=%v", size, err, degraded, bytes.Equal(got, data))
				}
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown backend":        {"-backend", "tape"},
		"osd without urls":       {"-backend", "osd"},
		"placer wider than osds": {"-backend", "mem", "-hosts", "1", "-osds-per-host", "2"},
		"bad tenants":            {"-tenants", "gold"},
		"bad geometry":           {"-backend", "mem", "-k", "0"},
		"unknown flag":           {"-smoke"},
	} {
		if gw, err := boot(args...); err == nil {
			gw.Close()
			t.Errorf("%s: %v accepted", name, args)
		}
	}
}

func TestParseTenants(t *testing.T) {
	w := func(f float64) qos.TenantConfig { return qos.TenantConfig{Weight: f} }
	for in, want := range map[string]map[string]qos.TenantConfig{
		"gold:3,silver:2,bronze:1": {"gold": w(3), "silver": w(2), "bronze": w(1)},
		" gold:0.5 , ,silver:1e2,": {"gold": w(0.5), "silver": w(100)},
		"gold:1,gold:2":            {"gold": w(2)}, // last one wins
		"":                         nil,
		" , ":                      nil,
		"gold":                     nil,
		":3":                       nil,
		"gold:3,silver":            nil,
		"gold:heavy":               nil,
		"a:b:2":                    nil, // the weight is "b:2"
		"gold:0":                   nil,
		"gold:-1":                  nil,
		"gold:NaN":                 nil,
		"gold:+Inf":                nil,
	} {
		got, err := parseTenants(in)
		if (err == nil) != (want != nil) || (want != nil && !reflect.DeepEqual(got, want)) {
			t.Errorf("parseTenants(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestSplitURLs(t *testing.T) {
	for in, want := range map[string][]string{
		"":                           nil,
		" , ":                        nil,
		"http://a:1":                 {"http://a:1"},
		"http://a:1,http://b:2":      {"http://a:1", "http://b:2"},
		" http://a:1 ,, http://b:2,": {"http://a:1", "http://b:2"},
	} {
		if got := splitURLs(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitURLs(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzParseTenants: whatever -tenants holds, an accepted value yields at
// least one tenant, every name non-empty and every weight a positive
// finite number (a zero, negative, NaN or infinite weight would corrupt
// the weighted-fair share computation).
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{"gold:3,silver:2,bronze:1", "gold", ":1", "a:0", "a:NaN", "a:+Inf", "a:1e999", " a:1 , ", "", "a:b:1", "a:1,a:2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out, err := parseTenants(s)
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatalf("parseTenants(%q) accepted with no tenants", s)
		}
		for name, tc := range out {
			if name == "" || !(tc.Weight > 0) || math.IsInf(tc.Weight, 1) {
				t.Fatalf("parseTenants(%q) accepted %q with weight %v", s, name, tc.Weight)
			}
		}
	})
}
