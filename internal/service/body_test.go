package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ecarray/internal/crush"
)

// allocatedBy returns the heap bytes fn allocated (whether or not they
// were freed again), the figure a grow-and-copy read inflates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// grantReader records the buffer lengths readBody reads into: each Read
// asks for the rest of the current buffer, so the offset it would end at
// is that buffer's length.
type grantReader struct {
	r      io.Reader
	off    int
	grants []int
}

func (g *grantReader) Read(p []byte) (int, error) {
	if end := g.off + len(p); len(g.grants) == 0 || g.grants[len(g.grants)-1] != end {
		g.grants = append(g.grants, end)
	}
	n, err := g.r.Read(p)
	g.off += n
	return n, err
}

func TestReadBody(t *testing.T) {
	big := payload(3<<20+5, 1) // over bodyHead: filled in two steps
	for name, c := range map[string]struct {
		data   []byte
		grants []int // the buffer lengths it is read into
	}{
		"empty": {[]byte{}, nil},
		"small": {payload(777, 2), []int{777}},
		"head":  {payload(bodyHead, 3), []int{bodyHead}},
		"big":   {big, []int{bodyHead, len(big)}},
		"huge":  {payload(9<<20+1, 4), []int{bodyHead, 8 * bodyHead, 9<<20 + 1}},
	} {
		// Exact fill: bodyHead first, then regrown to at most eight times
		// what has arrived, and the declared length returned; a caller that
		// keeps the result gets exactly its length. A pooled read follows
		// the same schedule, or fills an idle pool buffer of the whole
		// length in one step.
		for _, pooled := range []bool{false, true} {
			r := &grantReader{r: iotest.OneByteReader(bytes.NewReader(c.data))}
			got, err := readBody(r, int64(len(c.data)), math.MaxInt64, pooled)
			if err != nil || !bytes.Equal(got, c.data) {
				t.Fatalf("%s declared, pooled %v: err=%v len=%d, want the %d bytes", name, pooled, err, len(got), len(c.data))
			}
			if !slices.Equal(r.grants, c.grants) && !(pooled && slices.Equal(r.grants, []int{len(c.data)})) {
				t.Fatalf("%s declared, pooled %v: read into buffers of %v bytes, want %v", name, pooled, r.grants, c.grants)
			}
			if !pooled && cap(got) != len(got) {
				t.Fatalf("%s declared: returned %d bytes in a buffer of %d, want an exact-length buffer", name, len(got), cap(got))
			}
		}
		// Undeclared: what io.ReadAll returns.
		got, err := readBody(bytes.NewReader(c.data), -1, math.MaxInt64, false)
		if err != nil || !bytes.Equal(got, c.data) {
			t.Fatalf("%s undeclared: err=%v len=%d", name, err, len(got))
		}
	}

	// With an idle pool buffer of its whole length to hand, a pooled read
	// over bodyHead fills it in one step. (sync.Pool may drop what it is
	// given, so the buffer is offered until it is taken.)
	for try := 0; ; try++ {
		putShardBuf(getShardBuf(len(big)))
		r := &grantReader{r: bytes.NewReader(big)}
		got, err := readBody(r, int64(len(big)), math.MaxInt64, true)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("pooled over an idle buffer: err=%v len=%d, want the %d bytes", err, len(got), len(big))
		}
		if slices.Equal(r.grants, []int{len(big)}) {
			break
		}
		if try == 20 {
			t.Fatalf("pooled over an idle buffer: read into buffers of %v bytes, want one of %d", r.grants, len(big))
		}
	}

	// A body that ends short of its declaration — in the head, in the
	// tail, or at once — is an unexpected EOF, never a short success.
	for _, c := range []struct{ sent, declared int }{{9, 100}, {bodyHead + 9, 3 << 20}, {0, 1}} {
		for _, pooled := range []bool{false, true} {
			putShardBuf(getShardBuf(c.declared)) // an idle buffer does not change that
			got, err := readBody(bytes.NewReader(big[:c.sent]), int64(c.declared), math.MaxInt64, pooled)
			if got != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d bytes sent of %d declared, pooled %v: %d bytes, err %v, want io.ErrUnexpectedEOF", c.sent, c.declared, pooled, len(got), err)
			}
		}
	}

	// The reader's own error (a cancelled request's context error, a
	// MaxBytesReader's limit error) comes back as it is.
	boom := errors.New("boom")
	if _, err := readBody(io.MultiReader(bytes.NewReader(big[:10]), iotest.ErrReader(boom)), 100, math.MaxInt64, false); !errors.Is(err, boom) {
		t.Fatalf("reader error: got %v, want it passed through", err)
	}

	// Over the limit: refused on the declaration, nothing read.
	src := bytes.NewReader(big)
	var tooBig *http.MaxBytesError
	if _, err := readBody(src, int64(len(big)), 1<<20, false); !errors.As(err, &tooBig) || tooBig.Limit != 1<<20 || src.Len() != len(big) {
		t.Fatalf("declared over the limit: err %v with %d of %d bytes left unread, want *http.MaxBytesError and all of them", err, src.Len(), len(big))
	}
}

// TestReadBodyAllocationTrailsBytes: what readBody allocates follows the
// bytes received, not the bytes declared — bodyHead up front, then at most
// eight times what has arrived. A peer that declares 1 GiB and sends 3
// bytes costs 1 MiB; one that declares the largest length there is and
// sends 1 MiB + 1 costs 9 MiB (and no out-of-range allocation).
func TestReadBodyAllocationTrailsBytes(t *testing.T) {
	sent := make([]byte, bodyHead+1)
	for _, c := range []struct {
		sent     int
		declared int64
		atMost   uint64
	}{{3, 1 << 30, 2 << 20}, {bodyHead + 1, math.MaxInt64, 10 << 20}} {
		for _, pooled := range []bool{false, true} {
			var err error
			n := allocatedBy(func() {
				_, err = readBody(bytes.NewReader(sent[:c.sent]), c.declared, math.MaxInt64, pooled)
			})
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d sent of %d declared, pooled %v: got %v, want io.ErrUnexpectedEOF", c.sent, c.declared, pooled, err)
			}
			if n >= c.atMost {
				t.Fatalf("%d sent of %d declared, pooled %v: allocated %d bytes, want under %d", c.sent, c.declared, pooled, n, c.atMost)
			}
		}
	}
}

// FuzzReadBody: whatever a peer declares and then sends, behind the
// MaxBytesReader the handlers put in front of it readBody does not panic,
// returns at most limit bytes, and on success returns exactly what was
// sent up to the declared length, in a pool buffer or not.
func FuzzReadBody(f *testing.F) {
	f.Add(int64(-1), 10, int64(100), false)
	f.Add(int64(10), 10, int64(100), false)
	f.Add(int64(11), 10, int64(100), true)
	f.Add(int64(5), 10, int64(100), true)
	f.Add(int64(101), 101, int64(100), false)
	f.Add(int64(-1), 101, int64(100), true)
	f.Add(int64(0), 0, int64(0), false)
	f.Add(int64(1<<40), 3, int64(1<<41), true)
	f.Add(int64(bodyHead+1), bodyHead+1, int64(2<<20), false)
	f.Add(int64(math.MinInt64), 1, int64(math.MaxInt64), true)
	sent := payload(2<<20, 4)
	f.Fuzz(func(t *testing.T, declared int64, actual int, limit int64, pooled bool) {
		if actual < 0 || actual > len(sent) || limit < 0 {
			t.Skip()
		}
		body := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(sent[:actual])), limit)
		got, err := readBody(body, declared, limit, pooled)
		if int64(len(got)) > limit {
			t.Fatalf("returned %d bytes over limit %d", len(got), limit)
		}
		if err != nil {
			return
		}
		want := sent[:actual]
		if declared >= 0 {
			want = want[:declared] // success means all of it arrived
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("declared %d, sent %d, limit %d: got %d bytes, want %d", declared, actual, limit, len(got), len(want))
		}
	})
}

// TestShardGetCancelledMidBody: a shard GET whose request is cancelled, or
// runs out of time, while the body is still arriving — a hedge loser, a
// request deadline — returns the context's error, not a short read, not
// ErrOSDDown and not the connection's own i/o timeout (its deadline is
// ctx's, and it may fire before ctx's timer does). The daemon cancels, or
// stops sending until the deadline has passed, once it has sent half the
// body: the socket buffers at both ends are kept small and hold far less
// than that, so by then the client has read the head and is in the body.
func TestShardGetCancelledMidBody(t *testing.T) {
	for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if want == context.DeadlineExceeded {
			ctx = lateTimer{ctx, time.Now().Add(300 * time.Millisecond)}
		}
		release := make(chan struct{})
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "2097152")
			_, _ = w.Write(make([]byte, 1<<20))
			w.(http.Flusher).Flush()
			if want == context.Canceled {
				cancel()
			}
			<-release
		}))
		srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
			if s == http.StateNew {
				_ = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
			}
		}
		srv.Start()
		oc := NewOSDClient(0, srv.URL)
		oc.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				err = c.(*net.TCPConn).SetReadBuffer(64 << 10)
			}
			return c, err
		}
		data, err := oc.Get(ctx, "k", 0)
		cancel()
		close(release)
		srv.Close()
		if data != nil || !errors.Is(err, want) || errors.Is(err, ErrOSDDown) {
			t.Fatalf("got %d bytes, err %v, want %v", len(data), err, want)
		}
		if len(oc.idle) != 0 {
			t.Fatalf("%v: the connection went back to the pool", want)
		}
	}
}

// lateTimer is a context whose deadline passes long before its own timer
// fires: the order in which a connection's deadline can beat ctx's timer.
type lateTimer struct {
	context.Context
	deadline time.Time
}

func (c lateTimer) Deadline() (time.Time, bool) { return c.deadline, true }

// TestOSDPutReturnsAfterItsBody: a daemon answers 503 before reading an
// 8 MiB shard body, and then neither reads it nor closes the connection.
// Put, with no deadline, hears that answer while its write is stuck, cuts
// the write and returns the 503's mapping with the daemon's message, well
// inside a second. Put borrows its buffer only until it returns
// (ShardStore.Put), so nothing may send from it after that; the test then
// overwrites the buffer, which the race detector would flag if the body
// were still being sent.
func TestOSDPutReturnsAfterItsBody(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(stalledBusy(release))
	defer srv.Close()
	defer close(release)
	oc := NewOSDClient(0, srv.URL)
	data := payload(8<<20, 9)
	put := make(chan error, 1)
	go func() { put <- oc.Put(context.Background(), "k", 0, data) }()
	select {
	case err := <-put:
		if !errors.Is(err, ErrOSDDown) || !strings.HasSuffix(err.Error(), ": busy") {
			t.Fatalf("put to a daemon answering 503: %v, want ErrOSDDown ending in \": busy\"", err)
		}
	case <-time.After(time.Second):
		t.Fatal("put to a daemon that answered 503 and stalled has not returned after 1 s")
	}
	clear(data)
}

// TestPutGetBytesAllocated gates the data path's allocation the way
// TestStreamEncodeSteadyStateAllocs gates the codec's: through a gateway
// handler and six ecstored daemons over loopback HTTP, a PUT and a GET of
// a 4 MiB object, and of one a byte over 5 MiB whose shards fit no pool
// class exactly, allocate at most 3× the object between client, gateway
// and daemons together. Every shard buffer has one owner that gives it
// back to the shard pool, so in steady state the gateway allocates nothing
// sized by the object. What is left is 2.5×: the buffers the daemons read
// the shards into and keep 1.5 (MemStore.keep), the client's own read 1,
// in an exact-length buffer because the client keeps it; per-request odds
// and ends and the odd pool miss make it 2.6–2.7×.
// (Growing every hop's buffer by copying, as io.ReadAll does, made it 28×;
// a buffer per hop and a copy between them, 10×; shard buffers handed
// across ShardStore by reference but allocated per request, 5.7×; the
// client reading into a pool buffer rounded up to a power of two, 3.4× a
// byte over 5 MiB.) sync.Pool drops puts at random under -race, so the
// gate there is 7×. And an 8 KiB PUT sends the daemons (k+m)/k × 8 KiB,
// not a padded stripe.
func TestPutGetBytesAllocated(t *testing.T) {
	stores := make([]ShardStore, 6)
	osds := make([]*OSDServer, 6)
	for i := range stores {
		osds[i] = NewOSDServer(i, NewMemStore(i), nil)
		stores[i] = NewOSDClient(i, startDaemon(t, osds[i]).URL)
	}
	placer, err := NewPlacer(crush.Uniform(6, 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(DefaultGatewayConfig(), stores, placer)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	gc := NewGateClient(srv.URL)
	ctx := context.Background()
	pair := func(key string, data []byte) {
		t.Helper()
		if _, err := gc.PutObject(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		got, _, err := gc.GetObject(ctx, key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %s: err=%v match=%v", key, err, bytes.Equal(got, data))
		}
		if cap(got) != len(got) {
			t.Fatalf("get %s: the client keeps %d bytes in a buffer of %d, want an exact-length one", key, len(got), cap(got))
		}
	}
	bytesIn := func() (n int64) {
		for _, o := range osds {
			n += o.reg.Counter("ecstored_bytes_in_total").Value()
		}
		return n
	}

	limit := 3.0
	if raceEnabled {
		limit = 7
	}
	for _, size := range []int{4 << 20, 5<<20 + 1} {
		data, key := payload(size, int64(size)), fmt.Sprintf("alloc/%d", size)
		pair(key, data) // warm-up: connections, pools
		const pairs = 8
		perPair := allocatedBy(func() {
			for i := 0; i < pairs; i++ {
				pair(key, data)
			}
		}) / pairs
		times := float64(perPair) / float64(size)
		t.Logf("a %d-byte PUT+GET allocates %.2f× the object", size, times)
		if times > limit {
			t.Fatalf("a %d-byte PUT+GET allocates %d bytes (%.2f× the object), want at most %g×", size, perPair, times, limit)
		}
	}

	before := bytesIn()
	pair("alloc/small", payload(8<<10, 6))
	if moved := bytesIn() - before; moved > 16<<10 {
		t.Fatalf("an 8 KiB PUT moved %d bytes into the daemons, want at most 16 KiB", moved)
	}
}
