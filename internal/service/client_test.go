package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
)

// writeCounter counts the writes made to a connection. It has no ReadFrom
// of its own, so a body copied onto it shows as one write per buffer.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestLentBodyOneWrite: a 1 MiB shard PUT and a 1 MiB object upload each
// reach the connection in at most two writes, the headers and the body.
// net/http on its own copies a body through a 32 KiB buffer, 33 writes in
// all, so this fails if bodyConn is gone or if net/http stops handing it
// the lentBody.
func TestLentBodyOneWrite(t *testing.T) {
	bodies := make(chan []byte, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		writeJSON(w, http.StatusOK, struct{}{})
	}))
	defer srv.Close()
	var writes atomic.Int64
	hc := newHTTPClient(func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return writeCounter{c, &writes}, nil
	})
	oc, gc := NewOSDClient(0, srv.URL), NewGateClient(srv.URL)
	oc.hc, gc.hc = hc, hc
	ctx := context.Background()
	data := payload(1<<20, 5)
	for _, c := range []struct {
		name string
		put  func() error
	}{
		{"OSDClient.Put", func() error { return oc.Put(ctx, "k@1", 0, data) }},
		{"GateClient.PutObject", func() error { _, err := gc.PutObject(ctx, "k", data); return err }},
	} {
		writes.Store(0)
		if err := c.put(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := <-bodies; !bytes.Equal(got, data) {
			t.Fatalf("%s: the server read %d bytes, want the %d sent", c.name, len(got), len(data))
		}
		if n := writes.Load(); n > 2 {
			t.Fatalf("%s: a 1 MiB body took %d writes to the connection, want at most 2 (headers, body)", c.name, n)
		}
	}
}

// keyRig is a gateway over six ecstored daemons on loopback, with a
// GateClient to the gateway and an OSDClient to daemon 0, for following a
// user key down to the shard names it is stored under.
type keyRig struct {
	gw   *Gateway
	gc   *GateClient
	oc   *OSDClient
	mems []*MemStore
	puts uint64 // object PUTs so far: the gateway's last generation stamp
}

func newKeyRig(tb testing.TB) *keyRig {
	r := &keyRig{mems: make([]*MemStore, 6)}
	stores := make([]ShardStore, len(r.mems))
	for i := range r.mems {
		r.mems[i] = NewMemStore(i)
		daemon := httptest.NewServer(NewOSDServer(i, r.mems[i], nil).Handler())
		tb.Cleanup(daemon.Close)
		stores[i] = NewOSDClient(i, daemon.URL)
	}
	r.oc = stores[0].(*OSDClient)
	r.gw = buildGateway(tb, stores, nil)
	gate := httptest.NewServer(r.gw.Handler())
	tb.Cleanup(gate.Close)
	r.gc = NewGateClient(gate.URL)
	r.gc.SetRetries(0)
	return r
}

// roundTrip follows key both ways. As a shard, key@gen is stored through
// OSDClient and OSDServer's routing under exactly shardName(key@gen, idx)
// and reads back byte-identical. As an object (a non-empty key), it goes
// through GateClient and the gateway, each placed daemon holds its shard
// under shardName(key@<the PUT's generation>, i), and it reads back
// byte-identical. Both leave the daemons empty.
func (r *keyRig) roundTrip(t *testing.T, key string, gen uint64, idx int) {
	t.Helper()
	ctx := context.Background()
	data := payload(5000, int64(gen)) // over minPooledShard: a lent body
	skey := fmt.Sprintf("%s@%d", key, gen)
	if err := r.oc.Put(ctx, skey, idx, data); err != nil {
		t.Fatalf("shard %q: put: %v", skey, err)
	}
	if names := r.mems[0].Keys(); !slices.Equal(names, []string{shardName(skey, idx)}) {
		t.Fatalf("shard %q idx %d stored as %q, want %q", skey, idx, names, shardName(skey, idx))
	}
	got, err := r.oc.Get(ctx, skey, idx)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("shard %q: get: err=%v match=%v", skey, err, bytes.Equal(got, data))
	}
	if err := r.oc.Delete(ctx, skey, idx); err != nil {
		t.Fatalf("shard %q: delete: %v", skey, err)
	}
	if key == "" {
		return // no object has the empty key
	}

	oi, err := r.gc.PutObject(ctx, key, data)
	if err != nil {
		t.Fatalf("object %q: put: %v", key, err)
	}
	r.puts++
	skey = fmt.Sprintf("%s@%d", key, r.puts)
	for i, osd := range oi.OSDs {
		if names := r.mems[osd].Keys(); !slices.Equal(names, []string{shardName(skey, i)}) {
			t.Fatalf("object %q: OSD %d holds %q, want shard %d as %q", key, osd, names, i, shardName(skey, i))
		}
	}
	got, _, err = r.gc.GetObject(ctx, key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("object %q: get: err=%v match=%v", key, err, bytes.Equal(got, data))
	}
	if err := r.gc.DeleteObject(ctx, key); err != nil {
		t.Fatalf("object %q: delete: %v", key, err)
	}
	drain(r.gw)
	for _, osd := range oi.OSDs {
		if names := r.mems[osd].Keys(); len(names) != 0 {
			t.Fatalf("object %q: OSD %d still holds %q after the delete", key, osd, names)
		}
	}
}

// TestDotKeys: "." and ".." are keys like any other, for an object and for
// a shard. url.PathEscape leaves them bare, and a ServeMux cleans a bare
// dot segment out of the path with a 301, which net/http follows as a GET:
// the PUT came back ErrNotFound.
func TestDotKeys(t *testing.T) {
	r := newKeyRig(t)
	for _, key := range []string{".", ".."} {
		r.roundTrip(t, key, 7, 1)
		if err := r.oc.Put(context.Background(), key, 0, []byte("dots")); err != nil {
			t.Fatalf("shard key %q: put: %v", key, err)
		}
		if got, err := r.oc.Get(context.Background(), key, 0); err != nil || string(got) != "dots" {
			t.Fatalf("shard key %q: get: %q, %v", key, got, err)
		}
		if err := r.oc.Delete(context.Background(), key, 0); err != nil {
			t.Fatalf("shard key %q: delete: %v", key, err)
		}
	}
}

// FuzzShardKeyRoundTrip: whatever the user key, generation and shard index,
// the shard lands under exactly shardName(key@gen, idx) and the object
// under its placed shards' names, and both read back byte-identical (see
// keyRig.roundTrip).
func FuzzShardKeyRoundTrip(f *testing.F) {
	for _, key := range []string{".", "..", "%", "%2F", "@", "#", "/", "\x00", "a/../b", "k@3#1", "./.", ""} {
		f.Add(key, uint64(1), uint8(0))
	}
	f.Add("x", uint64(1<<63), uint8(255))
	r := newKeyRig(f)
	f.Fuzz(func(t *testing.T, key string, gen uint64, idx uint8) {
		if len(key) > 512 {
			t.Skip()
		}
		r.roundTrip(t, key, gen, int(idx))
	})
}
