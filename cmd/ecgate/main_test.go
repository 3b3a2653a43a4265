package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ecarray/internal/service"
)

// boot builds a gateway from a command line exactly as main does (minus
// -listen and the listener).
func boot(args ...string) (*service.Gateway, error) {
	fs := flag.NewFlagSet("ecgate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return newGateway(fs, args, slog.New(slog.NewJSONHandler(io.Discard, nil)))
}

// startOSD serves an ecstored daemon on a loopback listener until the test
// ends, as ecstored serves its own, and returns its URL.
func startOSD(t *testing.T, osd *service.OSDServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go osd.Serve(ln) //nolint:errcheck // returns once the test closes ln
	t.Cleanup(func() { ln.Close() })
	return "http://" + ln.Addr().String()
}

// TestGatewayWiringPerBackend boots the binary's wiring on each backend
// and drives the object lifecycle through GateClient over HTTP, with the
// kill and the heal going through the one fault path — POST
// /v1/faults/{osd} — which must behave the same whatever is behind it.
func TestGatewayWiringPerBackend(t *testing.T) {
	// Six shard daemons as ecstored builds them.
	var osdURLs []string
	for i := 0; i < 6; i++ {
		osdURLs = append(osdURLs, startOSD(t, service.NewOSDServer(i, service.NewMemStore(i), nil)))
	}
	for _, args := range [][]string{
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

			var st service.StatusInfo
			resp, err := http.Get(srv.URL + "/v1/status")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
			}
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

			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/objects/"+url.PathEscape(key), nil)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("delete: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: status %d, want 204", resp.StatusCode)
			}
			if _, _, err := gc.GetObject(ctx, key); !errors.Is(err, service.ErrNotFound) {
				t.Fatalf("get after delete: got %v, want ErrNotFound", err)
			}

			// Every stripe geometry -k 4 -chunk 65536 produces (the sizes of
			// service.TestStripeGeometry), healthy and with data shard 0
			// cut off: each backend stores and returns shards that are not a
			// multiple of -chunk long.
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

// TestDefaultBackend: with no -backend, ecgate boots the mem backend and
// says so on /v1/status.
func TestDefaultBackend(t *testing.T) {
	gw, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	var st service.StatusInfo
	resp, err := http.Get(srv.URL + "/v1/status")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	if err != nil || st.Backend != "mem" || st.OSDs != 6 {
		t.Fatalf("status %+v, err %v; want backend mem over 6 OSDs", st, err)
	}
}

// parkDeletes is an ecstored store whose shard Deletes park until release
// is closed; each Delete that reaches it is announced on arrived first.
type parkDeletes struct {
	*service.MemStore
	arrived chan<- struct{}
	release <-chan struct{}
}

func (s parkDeletes) Delete(ctx context.Context, key string, shard int) error {
	s.arrived <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.MemStore.Delete(ctx, key, shard)
}

// TestServeDrainsOnStop: cancelling serve's context, which is what SIGINT
// and SIGTERM do, while an acknowledged overwrite's shard deletes are
// parked in the daemons, does not return until those deletes finish. So a
// clean stop leaves only the live generation behind.
func TestServeDrainsOnStop(t *testing.T) {
	// arrived has room for more deletes than the test makes, so announcing
	// one never blocks a daemon.
	arrived, release := make(chan struct{}, 16), make(chan struct{})
	var once sync.Once
	let := func() { once.Do(func() { close(release) }) }
	t.Cleanup(let)
	mems := make([]*service.MemStore, 6)
	var urls []string
	for i := range mems {
		mems[i] = service.NewMemStore(i)
		urls = append(urls, startOSD(t, service.NewOSDServer(i, parkDeletes{mems[i], arrived, release}, nil)))
	}
	gw, err := boot("-backend", "osd", "-osd-urls", strings.Join(urls, ","), "-meta-dir", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, gw) }()

	gc := service.NewGateClient("http://" + ln.Addr().String())
	gc.SetRetries(0)
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for gen := 1; gen <= 2; gen++ {
		if _, err := gc.PutObject(pctx, "k", make([]byte, 8<<10)); err != nil {
			t.Fatalf("put of generation %d: %v", gen, err)
		}
	}
	for i := 0; i < 6; i++ { // the superseded generation's deletes park
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 6 shard deletes reached the daemons", i)
		}
	}

	stop()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) while an acknowledged overwrite's deletes were parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	let()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return once the deletes were let go")
	}
	var names []string
	for _, ms := range mems {
		names = append(names, ms.Keys()...)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "k@2#") {
			t.Fatalf("after a clean stop a daemon holds %q, not of the live generation k@2", name)
		}
	}
	if len(names) != 6 {
		t.Fatalf("after a clean stop the daemons hold %d shards, want the live generation's 6", len(names))
	}
}

func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown backend":        {"-backend", "tape"},
		"sim backend":            {"-backend", "sim"},
		"osd without urls":       {"-backend", "osd"},
		"placer wider than osds": {"-backend", "mem", "-hosts", "1", "-osds-per-host", "2"},
		"bad tenants":            {"-tenants", "gold"},
		"bad geometry":           {"-backend", "mem", "-k", "0"},
		"unknown flag":           {"-smoke"},
		"osd url without port":   {"-backend", "osd", "-osd-urls", goodOSD + "http://h"},
		"osd url over https":     {"-backend", "osd", "-osd-urls", goodOSD + "https://h:1"},
		"osd url without scheme": {"-backend", "osd", "-osd-urls", goodOSD + "h:1"},
		"osd url with a path":    {"-backend", "osd", "-osd-urls", goodOSD + "http://h:1/base"},
	} {
		gw, err := boot(args...)
		if err == nil {
			gw.Close()
			t.Errorf("%s: %v accepted", name, args)
			continue
		}
		// A bad -osd-urls entry fails the boot, and the error names it.
		if bad, ok := strings.CutPrefix(args[len(args)-1], goodOSD); ok && !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("%s: %q does not name %q", name, err, bad)
		}
	}
}

// goodOSD is five -osd-urls entries that OSDAddr accepts, put before a bad
// one so that the six would place RS(4,2).
var goodOSD = strings.Repeat("http://127.0.0.1:1,", 5)

func TestParseTenants(t *testing.T) {
	for in, want := range map[string]map[string]float64{
		"gold:3,silver:2,bronze:1": {"gold": 3, "silver": 2, "bronze": 1},
		" gold:0.5 , ,silver:1e2,": {"gold": 0.5, "silver": 100},
		"gold:1,gold:2":            {"gold": 2}, // last one wins
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
		for name, w := range out {
			if name == "" || !(w > 0) || math.IsInf(w, 1) {
				t.Fatalf("parseTenants(%q) accepted %q with weight %v", s, name, w)
			}
		}
	})
}
