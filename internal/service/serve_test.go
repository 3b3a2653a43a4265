package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// dialDaemon opens one connection to d and returns it with its reader.
func dialDaemon(t *testing.T, d *testDaemon) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, bufio.NewReader(nc)
}

// answerOf reads one answer off br, body included; method is the
// request's (a HEAD answer has no body).
func answerOf(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading the answer to a %s: %v", method, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the body of a %s answer: %v", method, err)
	}
	return resp, string(body)
}

// TestOSDLoopKeepAlive drives every route, method and body framing the
// daemon answers, and the errors it answers with, over one kept-alive
// connection: each answer has the status, headers and body net/http's
// server gave it, the error ones the JSON envelope, and the connection
// carries every request until one asks to close it.
func TestOSDLoopKeepAlive(t *testing.T) {
	d := startDaemon(t, NewOSDServer(4, NewMemStore(4), nil))
	nc, br := dialDaemon(t, d)
	shard := payload(10<<10, 4)
	send := func(head string, body []byte) {
		t.Helper()
		if _, err := io.WriteString(nc, head); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name, method string, code int, body string) *http.Response {
		t.Helper()
		resp, got := answerOf(t, br, method)
		if resp.StatusCode != code || (body != "" && got != body) {
			t.Fatalf("%s: %d %q, want %d %q", name, resp.StatusCode, got, code, body)
		}
		if code >= 400 {
			var eb errorBody
			if json.Unmarshal([]byte(got), &eb) != nil || eb.Error == "" || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s: error answer %q is not the JSON envelope", name, got)
			}
		}
		if resp.Close {
			t.Fatalf("%s: the daemon closes the connection", name)
		}
		return resp
	}

	send(fmt.Sprintf("PUT /v1/shards/a%%2Fb/3 HTTP/1.1\r\nHost: osd\r\nX-Request-ID: rid-1\r\nContent-Length: %d\r\n\r\n", len(shard)), shard)
	if resp := check("put", "PUT", 200, ""); resp.Header.Get(RequestIDHeader) != "rid-1" {
		t.Fatalf("put: request ID %q echoed, want rid-1", resp.Header.Get(RequestIDHeader))
	}
	send("GET /v1/shards/a%2Fb/3 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	resp := check("get", "GET", 200, string(shard))
	if id := resp.Header.Get(RequestIDHeader); !validRequestID(id) || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("get: headers %v, want a minted request ID and an octet-stream body", resp.Header)
	}
	send("HEAD /v1/shards/a%2Fb/3 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	if resp := check("head", "HEAD", 200, ""); resp.ContentLength != int64(len(shard)) {
		t.Fatalf("head: Content-Length %d, want %d", resp.ContentLength, len(shard))
	}
	send("PUT /v1/shards/c/0 HTTP/1.1\r\nHost: osd\r\nTransfer-Encoding: chunked\r\n\r\n", []byte("5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"))
	check("chunked put", "PUT", 200, "")
	send("GET /v1/shards/c/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("chunked get", "GET", 200, "hello world")

	send("PUT /v1/shards/e/0 HTTP/1.1\r\nHost: osd\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n", nil)
	check("expect", "PUT", http.StatusContinue, "")
	send("", []byte("later"))
	check("expect put", "PUT", 200, "")

	send("DELETE /v1/shards/e/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("delete", "DELETE", 204, "")
	send("DELETE /v1/shards/e/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("delete again", "DELETE", 404, "")
	send("GET /v1/shards/e/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("get missing", "GET", 404, "")
	send("POST /v1/shards/e/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("post shard", "POST", 405, "")
	send("DELETE /healthz HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("delete healthz", "DELETE", 405, "")
	send("GET /v1/shards/e/x HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("bad index", "GET", 400, "")
	send("GET /v1/shards/%zz/0 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("bad escape", "GET", 400, "")
	send("GET /v1/shards/e HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("short shard path", "GET", 404, "")
	send("GET /v1/nothing HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("unknown path", "GET", 404, "")

	send("GET /healthz HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	check("healthz", "GET", 200, "ok\n")
	send("GET /v1/stat?verbose=1 HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	_, body := answerOf(t, br, "GET")
	var st OSDStat
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.ID != 4 || st.Shards != 2 || st.Bytes != int64(len(shard))+11 {
		t.Fatalf("stat: %q (%v), want OSD 4 holding 2 shards", body, err)
	}
	send("GET /metrics HTTP/1.1\r\nHost: osd\r\n\r\n", nil)
	if _, body := answerOf(t, br, "GET"); !strings.Contains(body, `ecstored_ops_total{op="put",code="200"} 3`) {
		t.Fatalf("metrics:\n%s\nwant 3 successful puts", body)
	}
	if n := d.accepted.Load(); n != 1 {
		t.Fatalf("the requests took %d connections, want 1", n)
	}

	send("GET /healthz HTTP/1.1\r\nHost: osd\r\nConnection: keep-alive, close\r\n\r\n", nil)
	if resp, body := answerOf(t, br, "GET"); resp.StatusCode != 200 || body != "ok\n" || !resp.Close {
		t.Fatalf("Connection: close: %d %q close=%v, want 200 \"ok\\n\" and the connection closing", resp.StatusCode, body, resp.Close)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after an answer to Connection: close, read %v, want EOF", err)
	}

	// Heads that are not taken close their connection after the answer.
	for name, c := range map[string]struct {
		head string
		code int
	}{
		"over-long head":         {"GET /healthz HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", maxHead) + "\r\n\r\n", 431},
		"no version":             {"GET /healthz\r\n\r\n", 400},
		"HTTP/2":                 {"GET /healthz HTTP/2.0\r\n\r\n", 400},
		"space in a header name": {"GET /healthz HTTP/1.1\r\nX Pad: 1\r\n\r\n", 400},
		"negative length":        {"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
		"two lengths":            {"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab", 400},
		"length and chunked":     {"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n", 400},
		"gzip":                   {"PUT /v1/shards/k/0 HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 400},
	} {
		nc, br := dialDaemon(t, d)
		if _, err := io.WriteString(nc, c.head); err != nil {
			t.Fatal(err)
		}
		if resp, _ := answerOf(t, br, "GET"); resp.StatusCode != c.code || !resp.Close {
			t.Fatalf("%s: %d close=%v, want %d and the connection closing", name, resp.StatusCode, resp.Close, c.code)
		}
	}
}

// TestOSDLoopPipelined: requests sent back to back in one write, before
// any answer, are answered in order on the same connection, each body
// read to its declared end and no further.
func TestOSDLoopPipelined(t *testing.T) {
	d := startDaemon(t, NewOSDServer(0, NewMemStore(0), nil))
	nc, br := dialDaemon(t, d)
	shard := payload(3000, 8)
	var reqs bytes.Buffer
	fmt.Fprintf(&reqs, "PUT /v1/shards/p/1 HTTP/1.1\r\nHost: osd\r\nContent-Length: %d\r\n\r\n%s", len(shard), shard)
	reqs.WriteString("GET /v1/shards/p/1 HTTP/1.1\r\nHost: osd\r\n\r\n")
	reqs.WriteString("PUT /v1/shards/p/2 HTTP/1.1\r\nHost: osd\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n")
	reqs.WriteString("DELETE /v1/shards/p/1 HTTP/1.1\r\nHost: osd\r\n\r\n")
	reqs.WriteString("GET /v1/shards/p/1 HTTP/1.1\r\nHost: osd\r\n\r\n")
	reqs.WriteString("GET /v1/shards/p/2 HTTP/1.1\r\nHost: osd\r\n\r\n")
	if _, err := nc.Write(reqs.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		method string
		code   int
		body   string
	}{
		{"PUT", 200, ""},
		{"GET", 200, string(shard)},
		{"PUT", 200, ""},
		{"DELETE", 204, ""},
		{"GET", 404, ""},
		{"GET", 200, "ok"},
	} {
		resp, body := answerOf(t, br, want.method)
		if resp.StatusCode != want.code || (want.body != "" && body != want.body) {
			t.Fatalf("answer %d: %d with %d bytes, want %d with %d", i, resp.StatusCode, len(body), want.code, len(want.body))
		}
	}
	if n := d.accepted.Load(); n != 1 {
		t.Fatalf("pipelined requests took %d connections, want 1", n)
	}
}

// TestOSDLoopClientLeavesMidBody: a sender that declares a 1 MiB shard,
// sends part of it and hangs up (a cancelled hedge, a timed-out send) is
// logged as a 400 PUT with the read's error and stores nothing; one that
// hangs up mid-head is not logged at all. The daemon goes on serving.
func TestOSDLoopClientLeavesMidBody(t *testing.T) {
	records := make(logRecords, 16)
	ms := NewMemStore(0)
	d := startDaemon(t, NewOSDServer(0, ms, slog.New(slog.NewJSONHandler(records, nil))))

	nc, _ := dialDaemon(t, d)
	if _, err := io.WriteString(nc, "PUT /v1/shards/gone/0 HTTP/1.1\r\nHost: osd\r\nContent-Length: 1048576\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(payload(100<<10, 1)); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	select {
	case rec := <-records:
		if rec["op"] != "put" || rec["status"] != float64(http.StatusBadRequest) || rec["bytes"] != float64(0) || rec["key"] != "gone" {
			t.Fatalf("logged %v, want a 400 put of gone with 0 bytes", rec)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no access line for the abandoned PUT")
	}

	nc, _ = dialDaemon(t, d)
	if _, err := io.WriteString(nc, "PUT /v1/shards/gone/1 HTTP/1.1\r\nHost: o"); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	oc := NewOSDClient(0, d.URL)
	if err := oc.Put(context.Background(), "after", 0, []byte("fine")); err != nil {
		t.Fatalf("put after the hang-ups: %v", err)
	}
	if rec := <-records; rec["key"] != "after" {
		t.Fatalf("logged %v, want only the put after the hang-ups", rec)
	}
	if keys := ms.Keys(); len(keys) != 1 || keys[0] != "after#0" {
		t.Fatalf("stored %v, want only after#0", keys)
	}
}

// TestOSDShardOpAllocs gates what one shard request costs the daemon: over
// one kept-alive net.Pipe connection, a raw client with its requests built
// beforehand sends a warm 2 KiB shard PUT, GET and DELETE, and each
// allocates at most its gate, the daemon's access line included (written
// to a discarding JSON handler). The PUT's count includes the stored
// shard's buffer. The answers are read with headReader.readHead, so the
// gates hold it to no allocation on a 2xx answer as well.
func TestOSDShardOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	logged := make(chan struct{}, 1)
	signal := writeFunc(func(p []byte) (int, error) {
		logged <- struct{}{}
		return len(p), nil
	})
	osd := NewOSDServer(0, NewMemStore(0), slog.New(slog.NewJSONHandler(signal, nil)))
	cli, srv := net.Pipe()
	defer cli.Close()
	go osd.serveConn(srv)
	shard := payload(2<<10, 2)
	const head = "%s /v1/shards/obj@12/3 HTTP/1.1\r\nHost: 127.0.0.1:7411\r\nX-Request-ID: 0123456789abcdef\r\n"
	put := append([]byte(fmt.Sprintf(head+"Content-Length: %d\r\n\r\n", "PUT", len(shard))), shard...)
	get := []byte(fmt.Sprintf(head+"\r\n", "GET"))
	del := []byte(fmt.Sprintf(head+"\r\n", "DELETE"))
	h, answer := &headReader{br: bufio.NewReader(cli)}, make([]byte, 4<<10)
	// op sends req and waits for its answer and then its access line, so
	// each measurement holds one request's whole cost and nothing else.
	op := func(req []byte, want int) {
		if _, err := cli.Write(req); err != nil {
			t.Fatal(err)
		}
		var a httpHead
		err := h.readHead(&a, true)
		if err == nil {
			_, err = io.ReadFull(h.br, answer[:a.declared])
		}
		if err != nil || a.code != want {
			t.Fatalf("answer %d (%v), want %d", a.code, err, want)
		}
		<-logged
	}
	op(put, 200) // warm-up: registry series, buffers
	op(get, 200)
	op(del, 204)

	const runs = 200
	puts := testing.AllocsPerRun(runs, func() { op(put, 200) })
	gets := testing.AllocsPerRun(runs, func() { op(get, 200) })
	putDels := testing.AllocsPerRun(runs, func() { op(put, 200); op(del, 204) })
	dels := putDels - puts
	t.Logf("allocations per 2 KiB shard op: put %.0f, get %.0f, delete %.0f", puts, gets, dels)
	for _, c := range []struct {
		op        string
		got, gate float64
	}{{"put", puts, 6}, {"get", gets, 5}, {"delete", dels, 5}} {
		if c.got > c.gate {
			t.Errorf("a warm 2 KiB shard %s allocates %.0f times, want at most %.0f", c.op, c.got, c.gate)
		}
	}
}

// TestOSDClientShardOpAllocs gates what one shard op costs the gateway's
// client and the daemon together: OSDClient, over one kept-alive net.Pipe
// connection to OSDServer.serveConn, sends a warm 2 KiB shard PUT, GET
// and DELETE, each under a 1 s deadline, and each allocates at most its
// gate, the daemon's access line and the GET's shard buffer included. Not
// counted is the test's own share of an op, measured on its own: the
// deadline, and the timers with which a net.Pipe keeps one (a
// *net.TCPConn keeps its deadline in the runtime's poller). A GET and a
// DELETE carry no body, and a connection that is not a *net.TCPConn
// writes each buffer of a writev on its own: an empty one is a write that
// waits for the daemon to read, while the daemon waits to write its
// answer.
func TestOSDClientShardOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	logged := make(chan struct{}, 1)
	signal := writeFunc(func(p []byte) (int, error) {
		logged <- struct{}{}
		return len(p), nil
	})
	osd := NewOSDServer(0, NewMemStore(0), slog.New(slog.NewJSONHandler(signal, nil)))
	cli, srv := net.Pipe()
	defer cli.Close()
	go osd.serveConn(srv)
	oc := NewOSDClient(0, "http://127.0.0.1:7411")
	dialled := false
	oc.dial = func(context.Context, string, string) (net.Conn, error) {
		if dialled {
			return nil, errors.New("redialled: one connection must carry every op")
		}
		dialled = true
		return cli, nil
	}
	shard := payload(2<<10, 2)
	put := func(ctx context.Context) error { return oc.Put(ctx, "obj@12", 3, shard) }
	get := func(ctx context.Context) error {
		data, err := oc.Get(ctx, "obj@12", 3)
		if err == nil && !bytes.Equal(data, shard) {
			err = fmt.Errorf("read back %d bytes that differ", len(data))
		}
		return err
	}
	del := func(ctx context.Context) error { return oc.Delete(ctx, "obj@12", 3) }
	// op runs one shard op and waits for its access line, so each
	// measurement holds one op's whole cost and nothing else.
	base := WithRequestID(context.Background(), "0123456789abcdef") // as the gateway forwards one
	op := func(do func(context.Context) error) {
		ctx, cancel := context.WithTimeout(base, time.Second)
		defer cancel()
		if err := do(ctx); err != nil {
			t.Fatal(err)
		}
		<-logged
	}
	op(put) // warm-up: registry series, buffers
	op(get)
	op(del)

	const runs = 200
	own := testing.AllocsPerRun(runs, func() {
		ctx, cancel := context.WithTimeout(base, time.Second)
		deadline, _ := ctx.Deadline()
		_ = cli.SetDeadline(deadline)
		cancel()
	})
	puts := testing.AllocsPerRun(runs, func() { op(put) }) - own
	gets := testing.AllocsPerRun(runs, func() { op(get) }) - own
	putDels := testing.AllocsPerRun(runs, func() { op(put); op(del) }) - 2*own
	dels := putDels - puts
	t.Logf("allocations per 2 KiB shard op, client and daemon: put %.0f, get %.0f, delete %.0f (and the test's own %.0f)", puts, gets, dels, own)
	for _, c := range []struct {
		op        string
		got, gate float64
	}{{"put", puts, 13}, {"get", gets, 13}, {"delete", dels, 12}} {
		if c.got > c.gate {
			t.Errorf("a warm 2 KiB shard %s allocates %.0f times, client and daemon, want at most %.0f", c.op, c.got, c.gate)
		}
	}
}

// putRecorder is a ShardStore that records every shard it is given.
type putRecorder struct {
	mu   sync.Mutex
	puts []storedShard
}

type storedShard struct {
	key  string
	idx  int
	data string
}

func (s *putRecorder) record(key string, idx int, data []byte) {
	s.mu.Lock()
	s.puts = append(s.puts, storedShard{key, idx, string(data)})
	s.mu.Unlock()
}

// FuzzOSDRequest feeds arbitrary bytes to the daemon's loop over a
// net.Pipe, as one connection's worth of requests, under a deadline. It
// never panics or hangs, and it stores a shard only for a request that
// net/http's own parser reads as that PUT, head and body alike: the shards
// stored are, in order, some of the shard PUTs that http.ReadRequest finds
// in the same bytes, each with exactly its declared or chunked body.
func FuzzOSDRequest(f *testing.F) {
	for _, in := range []string{
		"PUT /v1/shards/k/0 HTTP/1.1\r\nHost: o\r\nContent-Length: 5\r\n\r\nhello",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nHost: o\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nHost: o\r\nTransfer-Encoding: chunked\r\n\r\n3;x=y\r\nabc\r\n0\r\nTrailer: v\r\n\r\n",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nHost: o\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: -2\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\nHost: o\nContent-Length: 2\n\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", maxHead) + "\r\nContent-Length: 2\r\n\r\nok",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 2\r\n\r\nokPUT /v1/shards/k/1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nyes",
		"PUT /v1/shards/k/0 HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
		"PUT /v1/shards/k%2F/0 HTTP/1.0\r\nContent-Length: 2\r\n\r\nok",
		"GET /v1/shards/k/0 HTTP/1.1\r\n\r\nDELETE /v1/shards/k/0 HTTP/1.1\r\n\r\n",
		"garbage\r\n\r\n",
		"",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// What net/http reads in the bytes: the shard PUTs in order, up to
		// the first request it cannot read whole.
		var want []storedShard
		for br := bufio.NewReader(bytes.NewReader(in)); ; {
			req, err := http.ReadRequest(br)
			if err != nil {
				break
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				break
			}
			seg, idx, ok := strings.Cut(strings.TrimPrefix(req.URL.EscapedPath(), "/v1/shards/"), "/")
			key, kerr := url.PathUnescape(seg)
			n, nerr := strconv.Atoi(idx)
			if req.Method == http.MethodPut && ok && kerr == nil && nerr == nil {
				want = append(want, storedShard{key, n, string(body)})
			}
		}

		rec := &putRecorder{}
		osd := NewOSDServer(0, recordingStore{MemStore: NewMemStore(0), rec: rec}, nil)
		osd.maxShard = 4 << 10
		cli, srv := net.Pipe()
		_ = srv.SetDeadline(time.Now().Add(5 * time.Second))
		served := make(chan struct{})
		go func() {
			osd.serveConn(srv)
			close(served)
		}()
		go func() { _, _ = io.Copy(io.Discard, cli) }() // the answers
		// Once Write returns the daemon has read every byte; a read past
		// them fails at once, as if the client had half-closed.
		if _, err := cli.Write(in); err == nil {
			_ = srv.SetReadDeadline(time.Now())
		}
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("the daemon still serves %q after 10 s", in)
		}
		cli.Close()

		next := 0
		for _, got := range rec.puts {
			for next < len(want) && want[next] != got {
				next++
			}
			if next == len(want) {
				t.Fatalf("stored %q idx %d (%d bytes), which net/http does not read as a PUT in order: %q", got.key, got.idx, len(got.data), in)
			}
			next++
		}
	})
}

// recordingStore is a MemStore that records every Put. Not being a
// *MemStore itself, it takes the daemon's non-MemStore path: it borrows
// each body buffer.
type recordingStore struct {
	*MemStore
	rec *putRecorder
}

func (s recordingStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	s.rec.record(key, shard, data)
	return s.MemStore.Put(ctx, key, shard, data)
}
