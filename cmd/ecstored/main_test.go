package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecarray/internal/service"
)

// boot builds the daemon from a command line exactly as main does (minus
// -listen) and serves it on a loopback listener, as main serves its own.
// It returns the daemon's URL.
func boot(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("ecstored", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	srv, err := newServer(fs, args, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	if err != nil {
		t.Fatalf("boot %v: %v", args, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns once the test closes ln
	t.Cleanup(func() { ln.Close() })
	return "http://" + ln.Addr().String()
}

func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// TestBackends boots each backend with an explicit -id and -host, checks
// that /v1/stat reports them, and runs a shard through PUT, GET and
// DELETE over HTTP.
func TestBackends(t *testing.T) {
	for _, backend := range []string{"mem"} {
		t.Run(backend, func(t *testing.T) {
			base := boot(t, "-backend", backend, "-id", "3", "-host", "rackA")
			code, body := do(t, "GET", base+"/v1/stat", nil)
			var st service.OSDStat
			if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
				t.Fatalf("stat: %d %s", code, body)
			}
			if st.ID != 3 || st.Host != "rackA" || st.Backend != backend {
				t.Errorf("stat = %+v, want id 3 on rackA from %s", st, backend)
			}

			shard := bytes.Repeat([]byte("ecstored"), 1000)
			url := base + "/v1/shards/obj/2"
			if code, body := do(t, "PUT", url, shard); code != http.StatusOK {
				t.Fatalf("put: %d %s", code, body)
			}
			if code, body := do(t, "GET", url, nil); code != http.StatusOK || !bytes.Equal(body, shard) {
				t.Fatalf("get: %d, %d bytes back of %d", code, len(body), len(shard))
			}
			if code, body := do(t, "DELETE", url, nil); code != http.StatusNoContent {
				t.Fatalf("delete: %d %s", code, body)
			}
			if code, _ := do(t, "GET", url, nil); code != http.StatusNotFound {
				t.Errorf("get after delete: %d, want 404", code)
			}
		})
	}
}

// TestMaxInflight holds the one admission slot with a PUT whose body has
// not arrived, so every other request gets 429 until the body does.
func TestMaxInflight(t *testing.T) {
	base := boot(t, "-max-inflight", "1")
	pr, pw := io.Pipe()
	req, err := http.NewRequest("PUT", base+"/v1/shards/slow/0", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 4
	put := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			put <- 0
			return
		}
		resp.Body.Close()
		put <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := do(t, "GET", base+"/v1/stat", nil)
		if code == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 429 while the slot was held (last status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}
	pw.Write([]byte("body")) //nolint:errcheck // the put's status says whether it arrived
	pw.Close()
	if code := <-put; code != http.StatusOK {
		t.Fatalf("held put: %d", code)
	}
	if code, _ := do(t, "GET", base+"/v1/stat", nil); code != http.StatusOK {
		t.Errorf("stat after the slot freed: %d", code)
	}
}

func TestUnknownBackend(t *testing.T) {
	for _, backend := range []string{"disk", "sim"} {
		fs := flag.NewFlagSet("ecstored", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := newServer(fs, []string{"-backend", backend}, slog.New(slog.NewJSONHandler(io.Discard, nil)))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(backend)) {
			t.Errorf("-backend %s: %v, want an unknown-backend error", backend, err)
		}
	}
}
