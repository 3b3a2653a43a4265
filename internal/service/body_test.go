package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"testing/iotest"

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

func TestReadBody(t *testing.T) {
	big := payload(3<<20+5, 1) // over bodyHead: filled in two steps
	for name, data := range map[string][]byte{"empty": {}, "small": payload(777, 2), "head": payload(bodyHead, 3), "big": big} {
		// Exact fill: the declared length sizes the one buffer returned.
		got, err := readBody(iotest.OneByteReader(bytes.NewReader(data)), int64(len(data)), math.MaxInt64)
		if err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
			t.Fatalf("%s declared: err=%v len=%d cap=%d, want the %d bytes in a buffer of that size", name, err, len(got), cap(got), len(data))
		}
		// Undeclared: what io.ReadAll returns.
		got, err = readBody(bytes.NewReader(data), -1, math.MaxInt64)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s undeclared: err=%v len=%d", name, err, len(got))
		}
	}

	// A body that ends short of its declaration — in the head, in the
	// tail, or at once — is an unexpected EOF, never a short success.
	for _, c := range []struct{ sent, declared int }{{9, 100}, {bodyHead + 9, 3 << 20}, {0, 1}} {
		got, err := readBody(bytes.NewReader(big[:c.sent]), int64(c.declared), math.MaxInt64)
		if got != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d bytes sent of %d declared: %d bytes, err %v, want io.ErrUnexpectedEOF", c.sent, c.declared, len(got), err)
		}
	}

	// The reader's own error (a cancelled request's context error, a
	// MaxBytesReader's limit error) comes back as it is.
	boom := errors.New("boom")
	if _, err := readBody(io.MultiReader(bytes.NewReader(big[:10]), iotest.ErrReader(boom)), 100, math.MaxInt64); !errors.Is(err, boom) {
		t.Fatalf("reader error: got %v, want it passed through", err)
	}

	// Over the limit: refused on the declaration, nothing read.
	src := bytes.NewReader(big)
	var tooBig *http.MaxBytesError
	if _, err := readBody(src, int64(len(big)), 1<<20); !errors.As(err, &tooBig) || tooBig.Limit != 1<<20 || src.Len() != len(big) {
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
		var err error
		n := allocatedBy(func() {
			_, err = readBody(bytes.NewReader(sent[:c.sent]), c.declared, math.MaxInt64)
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d sent of %d declared: got %v, want io.ErrUnexpectedEOF", c.sent, c.declared, err)
		}
		if n >= c.atMost {
			t.Fatalf("%d sent of %d declared: allocated %d bytes, want under %d", c.sent, c.declared, n, c.atMost)
		}
	}
}

// FuzzReadBody: whatever a peer declares and then sends, behind the
// MaxBytesReader the handlers put in front of it readBody does not panic,
// returns at most limit bytes, and on success returns exactly what was
// sent up to the declared length.
func FuzzReadBody(f *testing.F) {
	f.Add(int64(-1), 10, int64(100))
	f.Add(int64(10), 10, int64(100))
	f.Add(int64(11), 10, int64(100))
	f.Add(int64(5), 10, int64(100))
	f.Add(int64(101), 101, int64(100))
	f.Add(int64(-1), 101, int64(100))
	f.Add(int64(0), 0, int64(0))
	f.Add(int64(1<<40), 3, int64(1<<41))
	f.Add(int64(bodyHead+1), bodyHead+1, int64(2<<20))
	f.Add(int64(math.MinInt64), 1, int64(math.MaxInt64))
	sent := payload(2<<20, 4)
	f.Fuzz(func(t *testing.T, declared int64, actual int, limit int64) {
		if actual < 0 || actual > len(sent) || limit < 0 {
			t.Skip()
		}
		body := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(sent[:actual])), limit)
		got, err := readBody(body, declared, limit)
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

// cancelAfterHeaders cancels a request once its response headers are in,
// so the cancellation lands while the body is being read.
type cancelAfterHeaders struct {
	http.RoundTripper
	cancel context.CancelFunc
}

func (c cancelAfterHeaders) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.RoundTripper.RoundTrip(r)
	c.cancel()
	return resp, err
}

// TestShardGetCancelledMidBody: a shard GET whose request is cancelled
// while the body is still arriving — a hedge loser, a request deadline —
// returns the context's error, not a short read and not ErrOSDDown.
func TestShardGetCancelledMidBody(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "2097152")
		_, _ = w.Write(make([]byte, 1<<20))
		w.(http.Flusher).Flush()
		<-release
	}))
	defer srv.Close()
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	oc := NewOSDClient(0, srv.URL)
	oc.hc.Transport = cancelAfterHeaders{oc.hc.Transport, cancel}
	data, err := oc.Get(ctx, "k", 0)
	if data != nil || !errors.Is(err, context.Canceled) || errors.Is(err, ErrOSDDown) {
		t.Fatalf("got %d bytes, err %v, want context.Canceled", len(data), err)
	}
}

// TestPutGetBytesAllocated gates the data path's allocation the way
// TestStreamEncodeSteadyStateAllocs gates the codec's: through a gateway
// handler and six ecstored handlers over loopback HTTP, a PUT and a GET of
// a 4 MiB object allocate at most 7× the object between client, gateway and
// daemons together. The floor while shards cross ShardStore as whole
// slices is 5×: the daemons' stored shards 1.5, the gateway's PUT shard
// buffers 1.5 and GET shard buffers 1, the client's own read 1; the
// regrown head of the PUT buffers and per-request odds and ends make it
// 5.7×. (Growing every hop's buffer by copying, as io.ReadAll does, made
// it 28×; a buffer per hop and a copy between them, 10×.) And an 8 KiB PUT
// sends the daemons (k+m)/k × 8 KiB, not a padded stripe.
func TestPutGetBytesAllocated(t *testing.T) {
	stores := make([]ShardStore, 6)
	osds := make([]*OSDServer, 6)
	for i := range stores {
		osds[i] = NewOSDServer(i, NewMemStore(i), nil)
		srv := httptest.NewServer(osds[i].Handler())
		t.Cleanup(srv.Close)
		stores[i] = NewOSDClient(i, srv.URL)
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
		if got, _, err := gc.GetObject(ctx, key); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %s: err=%v match=%v", key, err, bytes.Equal(got, data))
		}
	}
	bytesIn := func() (n int64) {
		for _, o := range osds {
			n += o.Metrics().Counter("ecstored_bytes_in_total").Value()
		}
		return n
	}

	large := payload(4<<20, 5)
	pair("alloc/large", large) // warm-up: connections, pools
	const pairs = 8
	perPair := allocatedBy(func() {
		for i := 0; i < pairs; i++ {
			pair("alloc/large", large)
		}
	}) / pairs
	times := float64(perPair) / float64(len(large))
	t.Logf("a 4 MiB PUT+GET allocates %.1f× the object", times)
	if times > 7 {
		t.Fatalf("a 4 MiB PUT+GET allocates %d bytes (%.1f× the object), want at most 7×", perPair, times)
	}

	before := bytesIn()
	pair("alloc/small", payload(8<<10, 6))
	if moved := bytesIn() - before; moved > 16<<10 {
		t.Fatalf("an 8 KiB PUT moved %d bytes into the daemons, want at most 16 KiB", moved)
	}
}
