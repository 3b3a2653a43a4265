package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecarray/internal/qos"
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
// reach the connection in at most two writes, the head and the body.
// OSDClient hands both to one net.Buffers write, which is one writev on a
// *net.TCPConn and a write per buffer on this wrapped connection; GateClient
// goes through net/http, which on its own copies a body through a 32 KiB
// buffer, 33 writes in all, so this fails if bodyConn is gone or if
// net/http stops handing it the lentBody.
func TestLentBodyOneWrite(t *testing.T) {
	bodies := make(chan []byte, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		writeJSON(w, http.StatusOK, struct{}{})
	}))
	defer srv.Close()
	var writes atomic.Int64
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return writeCounter{c, &writes}, nil
	}
	oc, gc := NewOSDClient(0, srv.URL), NewGateClient(srv.URL)
	oc.dial, gc.hc = dial, newHTTPClient(dial)
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
			t.Fatalf("%s: a 1 MiB body took %d writes to the connection, want at most 2 (head, body)", c.name, n)
		}
	}
}

// TestShardConnReuse: 100 sequential shard ops — PUTs and GETs of small and
// large shards, DELETEs, and GETs answered 404 — all go over the one
// connection the first of them opened.
func TestShardConnReuse(t *testing.T) {
	d := startDaemon(t, NewOSDServer(0, NewMemStore(0), nil))
	oc := NewOSDClient(0, d.URL)
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		data := payload(2<<10+i%2*(1<<20), int64(i))
		if err := oc.Put(ctx, "k", i, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if got, err := oc.Get(ctx, "k", i); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %d: err=%v match=%v", i, err, bytes.Equal(got, data))
		}
		if err := oc.Delete(ctx, "k", i); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if _, err := oc.Get(ctx, "k", i); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get %d after delete: %v, want ErrNotFound", i, err)
		}
	}
	if n := d.accepted.Load(); n != 1 {
		t.Fatalf("100 sequential shard ops opened %d connections, want 1", n)
	}
}

// TestShardConnConcurrentCancel: eight goroutines share one OSDClient, as
// a hedge and the send it duplicates do, and many of their ops are cut
// short by deadlines of a millisecond or two. Every op that succeeds reads
// its own shard back, never an answer meant for another request, and no
// connection a cancellation closed is kept for reuse.
func TestShardConnConcurrentCancel(t *testing.T) {
	oc := NewOSDClient(0, startDaemon(t, NewOSDServer(0, NewMemStore(0), nil)).URL)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				data := payload(1<<10+(g*40+i)%5*(64<<10), int64(g*40+i))
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
				if i%3 == 0 {
					ctx, cancel = context.WithCancel(context.Background())
				}
				if err := oc.Put(ctx, fmt.Sprint(g), i, data); err == nil {
					if got, err := oc.Get(ctx, fmt.Sprint(g), i); err == nil && !bytes.Equal(got, data) {
						t.Errorf("goroutine %d op %d: got %d bytes that are not its shard", g, i, len(got))
					}
				} else if i%3 == 0 {
					t.Errorf("goroutine %d op %d: put without a deadline: %v", g, i, err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, cn := range oc.idle {
		if err := cn.SetDeadline(time.Time{}); err != nil {
			t.Fatalf("a closed connection was kept for reuse: %v", err)
		}
	}
}

// TestShardConnCancelAfterAnswer: the daemon cancels each GET's context as
// soon as it has sent the whole answer, so the cancellation lands before,
// while or after the client reads it. A connection the cancellation closed
// is never kept for reuse.
func TestShardConnCancelAfterAnswer(t *testing.T) {
	var cancelOp atomic.Pointer[context.CancelFunc]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "2")
		_, _ = io.WriteString(w, "ok")
		w.(http.Flusher).Flush()
		(*cancelOp.Load())()
	}))
	defer srv.Close()
	oc := NewOSDClient(0, srv.URL)
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelOp.Store(&cancel)
		if data, err := oc.Get(ctx, "k", 0); err == nil && string(data) != "ok" {
			t.Fatalf("get %d: %q, want \"ok\"", i, data)
		}
		for _, cn := range oc.idle {
			if err := cn.SetDeadline(time.Time{}); err != nil {
				t.Fatalf("get %d: a connection its cancellation closed was kept for reuse: %v", i, err)
			}
		}
	}
}

// TestShardConnRedialAfterRestart: the daemon restarts on the same address
// before each of a PUT of 64 KiB and one of 1 MiB, a GET and a DELETE, so
// each finds its idle connection closed. Each succeeds through one new
// connection, and no error surfaces.
func TestShardConnRedialAfterRestart(t *testing.T) {
	osd := NewOSDServer(0, NewMemStore(0), nil)
	d := startDaemon(t, osd)
	addr := d.Addr().String()
	restart := func() {
		d.Close()
		d = serveDaemon(t, osd, addr, nil)
	}
	oc := NewOSDClient(0, d.URL)
	var dials atomic.Int64
	oc.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
	ctx := context.Background()
	data := payload(64<<10, 3)
	if err := oc.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"put", func() error { return oc.Put(ctx, "k", 0, data) }},
		{"put over earlyAnswerBody", func() error { return oc.Put(ctx, "k", 1, payload(1<<20, 4)) }},
		{"get", func() error {
			got, err := oc.Get(ctx, "k", 0)
			if err == nil && !bytes.Equal(got, data) {
				err = fmt.Errorf("read back %d bytes that differ", len(got))
			}
			return err
		}},
		{"delete", func() error { return oc.Delete(ctx, "k", 0) }},
	} {
		restart()
		dials.Store(0)
		if err := c.op(); err != nil {
			t.Fatalf("%s after a restart: %v", c.name, err)
		}
		if n := dials.Load(); n != 1 {
			t.Fatalf("%s after a restart dialled %d times, want 1", c.name, n)
		}
	}
}

// rejectAll refuses every request, as an ecstored at -max-inflight does.
type rejectAll struct{}

func (rejectAll) Admit(qos.Request) qos.Decision {
	return qos.Decision{RetryAfter: time.Second}
}
func (rejectAll) Release(qos.Request) {}

// TestShardConnEarlyAnswer: a daemon that answers 503, and an ecstored
// that answers 429 through its admission, without reading an 8 MiB shard
// body. Each then closes the connection, and the rest of the body fails to
// send; Put still reads the answer the daemon sent before it
// closed, as net/http's client does, and returns that status's mapping
// well inside its 2 s deadline. A daemon that answers 503 and then stalls
// with the connection open gets the same: a body of earlyAnswerBody or
// more is cut once the answer is in, and a 2 KiB one fits the socket
// buffers, so it is sent whole and the answer is read after it.
func TestShardConnEarlyAnswer(t *testing.T) {
	release := make(chan struct{})
	var srvs []*httptest.Server
	defer func() {
		close(release)
		for _, srv := range srvs {
			srv.Close()
		}
	}()
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		srvs = append(srvs, srv)
		return srv.URL
	}
	rejecting := NewOSDServer(0, NewMemStore(0), nil)
	rejecting.SetAdmission(rejectAll{})
	busy := func(err error) bool { return errors.Is(err, ErrOSDDown) && strings.HasSuffix(err.Error(), ": busy") }
	stalled := stalledBusy(release)
	for _, c := range []struct {
		name  string
		size  int
		url   string
		check func(error) bool
	}{
		{"503", 8 << 20, serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "busy"})
		})), busy},
		{"429", 8 << 20, startDaemon(t, rejecting).URL, func(err error) bool {
			var se *StatusError
			return errors.As(err, &se) && se.Code == http.StatusTooManyRequests && se.RetryAfter == "1"
		}},
		{"stalled 503", 8 << 20, serve(stalled), busy},
		{"stalled 503, 2 KiB", 2 << 10, serve(stalled), busy},
	} {
		oc := NewOSDClient(0, c.url)
		var failed atomic.Bool
		oc.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			return writeWatch{nc, &failed}, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		err := oc.Put(ctx, "k", 0, payload(c.size, 4))
		took := time.Since(start)
		cancel()
		if !c.check(err) {
			t.Fatalf("%s: put got %v", c.name, err)
		}
		if cut := c.size >= earlyAnswerBody; failed.Load() != cut {
			t.Fatalf("%s: the write failed: %v, want %v", c.name, failed.Load(), cut)
		}
		if took > 1500*time.Millisecond {
			t.Fatalf("%s: put took %v, want well inside its 2 s deadline", c.name, took)
		}
	}
}

// stalledBusy answers 503 "busy" at once, and then, until release is
// closed, neither reads the request body nor closes the connection.
func stalledBusy(release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		const answer = `{"error":"busy"}`
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, answer)
		w.(http.Flusher).Flush()
		<-release
	})
}

// TestShardConnListenerLeavesNoDeadline: a daemon that waits longer than
// earlyAnswerDelay before reading a 1 MiB body, over socket buffers far
// smaller than that, keeps the write running until the listener starts.
// The daemon then reads it all and answers 200: the Put succeeds, and the
// GET after it reuses the connection (one dial in all), so the write
// deadline with which a listener cuts a write is not left on a pooled
// connection.
func TestShardConnListenerLeavesNoDeadline(t *testing.T) {
	d := serveDaemon(t, NewOSDServer(0, NewMemStore(0), nil), "127.0.0.1:0", func(c net.Conn) net.Conn {
		_ = c.(*net.TCPConn).SetReadBuffer(64 << 10)
		return &lateReader{Conn: c}
	})
	oc := NewOSDClient(0, d.URL)
	var dials atomic.Int64
	oc.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
		}
		return c, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	data := payload(1<<20, 6)
	if err := oc.Put(ctx, "k", 0, data); err != nil {
		t.Fatalf("put to a daemon that reads late: %v", err)
	}
	if got, err := oc.Get(ctx, "k", 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after it: err=%v match=%v", err, bytes.Equal(got, data))
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("a put whose write the listener waited on, and a get after it, dialled %d times, want 1", n)
	}
}

// lateReader is a daemon connection that waits longer than
// earlyAnswerDelay before its first read.
type lateReader struct {
	net.Conn
	waited bool
}

func (c *lateReader) Read(p []byte) (int, error) {
	if !c.waited {
		c.waited = true
		time.Sleep(5 * earlyAnswerDelay)
	}
	return c.Conn.Read(p)
}

// TestOSDAddr: an ecstored URL is http://host:port and nothing else.
// NewOSDClient over any other URL fails every op with ErrOSDDown.
func TestOSDAddr(t *testing.T) {
	for in, want := range map[string]string{
		"http://127.0.0.1:7411": "127.0.0.1:7411",
		"http://h:1/":           "",
		"http://[::1]:7411":     "[::1]:7411",
		"http://h":              "",
		"https://h:1":           "",
		"h:1":                   "",
		"http://h:1/base":       "",
		"http://h:1?q":          "",
		"http://user@h:1":       "",
		"http://h:x":            "",
		"":                      "",
	} {
		got, err := OSDAddr(in)
		if got != want || (err == nil) != (want != "") {
			t.Errorf("OSDAddr(%q) = %q, %v; want %q", in, got, err, want)
		}
		if want != "" {
			continue
		}
		oc := NewOSDClient(0, in)
		if err := oc.Put(context.Background(), "k", 0, []byte("x")); !errors.Is(err, ErrOSDDown) {
			t.Errorf("put through NewOSDClient(%q): %v, want ErrOSDDown", in, err)
		}
	}
}

// writeWatch records whether a write to a connection failed.
type writeWatch struct {
	net.Conn
	failed *atomic.Bool
}

func (c writeWatch) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil {
		c.failed.Store(true)
	}
	return n, err
}

// FuzzShardResponse serves arbitrary bytes as the daemon's reply to a
// shard PUT, GET and DELETE over net.Pipe, under a deadline; nothing
// panics or hangs. It is differential: whenever OSDClient takes an answer
// from the reply, http.ReadResponse reads the same status, body and, on a
// 429, Retry-After, and the two agree on whether the connection may carry
// another request (the answer read to its end, no Connection: close and
// nothing after it). Each op then returns what that answer maps to (a GET
// its body), and keeps its connection exactly when it may carry another
// request; an op whose reply OSDClient does not take fails, and keeps no
// connection.
func FuzzShardResponse(f *testing.F) {
	for _, r := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 21\r\n\r\n{\"error\":\"not found\"}",
		"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 16\r\n\r\n{\"error\":\"busy\"}",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\n\r\nuntil close",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"garbage\r\n\r\n",
		"",
		"HTTP/1.1 103 Early Hints\r\nLink: </k>\r\n\r\nHTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nTransfer-Encoding: chunked\r\n\r\n15\r\n{\"error\":\"not found\"}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\nuntil close",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 2\r\n\r\nok",
	} {
		f.Add([]byte(r))
	}
	put := payload(5000, 1)
	ops := map[string]func(context.Context, *OSDClient) ([]byte, error){
		"put":    func(ctx context.Context, oc *OSDClient) ([]byte, error) { return nil, oc.Put(ctx, "k", 0, put) },
		"get":    func(ctx context.Context, oc *OSDClient) ([]byte, error) { return oc.Get(ctx, "k", 0) },
		"delete": func(ctx context.Context, oc *OSDClient) ([]byte, error) { return nil, oc.Delete(ctx, "k", 0) },
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		// read reads the reply's answer the way OSDClient does (ours) or
		// net/http does, and reports whether its connection may carry
		// another request.
		read := func(ours bool) (a httpHead, body []byte, reusable bool, err error) {
			rest := bytes.NewReader(reply)
			h := &headReader{br: bufio.NewReader(rest)}
			if ours {
				if err = h.readHead(&a, true); err == nil {
					body, err = readBody(h.br, a.declared, math.MaxInt64, false)
				}
			} else {
				var resp *http.Response
				if resp, err = http.ReadResponse(h.br, nil); err == nil {
					a.code, a.retryAfter, a.close = resp.StatusCode, resp.Header.Get("Retry-After"), resp.Close
					body, err = io.ReadAll(resp.Body)
				}
			}
			return a, body, err == nil && !a.close && h.br.Buffered() == 0 && rest.Len() == 0, err
		}
		a, body, reusable, err := read(true)
		taken := err == nil
		if taken {
			b, rbody, rreusable, rerr := read(false)
			switch {
			case rerr != nil:
				t.Fatalf("OSDClient took a %d answer net/http refuses (%v): %q", a.code, rerr, reply)
			case b.code != a.code || !bytes.Equal(rbody, body):
				t.Fatalf("OSDClient read %d with %q, net/http %d with %q: %q", a.code, body, b.code, rbody, reply)
			case a.code == http.StatusTooManyRequests && b.retryAfter != a.retryAfter:
				t.Fatalf("OSDClient read Retry-After %q, net/http %q: %q", a.retryAfter, b.retryAfter, reply)
			case rreusable != reusable:
				t.Fatalf("OSDClient reads the connection as reusable: %v, net/http %v: %q", reusable, rreusable, reply)
			}
		}
		var eb errorBody
		_ = json.Unmarshal(body, &eb)
		for name, op := range ops {
			cli, srv := net.Pipe()
			go func() { _, _ = io.Copy(io.Discard, srv) }() // the request
			go func() {
				_, _ = srv.Write(reply)
				srv.Close()
			}()
			oc := NewOSDClient(0, "http://osd.test:80")
			dialled := false
			oc.dial = func(context.Context, string, string) (net.Conn, error) {
				if dialled {
					return nil, errors.New("one connection per op")
				}
				dialled = true
				return cli, nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			data, err := op(ctx, oc)
			cancel()
			cli.Close()
			var se *StatusError
			switch {
			case !taken && err == nil:
				t.Fatalf("%s: succeeded on a reply OSDClient does not take: %q", name, reply)
			case !taken:
			case a.code/100 == 2 && (err != nil || name == "get" && !bytes.Equal(data, body)):
				t.Fatalf("%s: %d bytes, %v from a %d answer with a %d-byte body", name, len(data), err, a.code, len(body))
			case a.code == http.StatusNotFound && !errors.Is(err, ErrNotFound),
				a.code == http.StatusServiceUnavailable && (!errors.Is(err, ErrOSDDown) || !strings.HasSuffix(err.Error(), ": "+eb.Error)),
				a.code/100 != 2 && a.code != http.StatusNotFound && a.code != http.StatusServiceUnavailable &&
					(!errors.As(err, &se) || se.Code != a.code || se.Message != eb.Error || se.RetryAfter != a.retryAfter):
				t.Fatalf("%s: %v from a %d answer: %q", name, err, a.code, reply)
			}
			// A reply that fits the connection's read buffer arrives whole
			// in its first read, so whatever follows the answer is seen.
			kept := len(oc.idle) != 0
			if kept && !(taken && reusable) || !kept && taken && reusable && len(reply) <= 4096 {
				t.Fatalf("%s: kept the connection: %v, want %v: %q", name, kept, taken && reusable, reply)
			}
		}
	})
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
		stores[i] = NewOSDClient(i, startDaemon(tb, NewOSDServer(i, r.mems[i], nil)).URL)
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
	data := payload(5000, int64(gen)) // over minPooledShard: a lent GateClient upload
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
	if err := r.gc.deleteObject(ctx, key); err != nil {
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

// TestLongestKey: a key of maxKeyBytes that escapes to three bytes a byte,
// the longest shard path the gateway builds, is a shard and an object
// like any other: every daemon takes its heads.
func TestLongestKey(t *testing.T) {
	newKeyRig(t).roundTrip(t, strings.Repeat("\xff", maxKeyBytes), 1<<63, 255)
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
