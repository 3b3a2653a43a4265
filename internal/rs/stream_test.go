package rs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func streamRoundTrip(t *testing.T, c *Code, payload []byte, chunk int, lost []int) []byte {
	t.Helper()
	writers := make([]io.Writer, c.k+c.m)
	bufs := make([]*bytes.Buffer, c.k+c.m)
	for i := range writers {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	n, err := c.StreamEncode(bytes.NewReader(payload), writers, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("encoded %d bytes, want %d", n, len(payload))
	}
	readers := make([]io.Reader, c.k+c.m)
	for i := range readers {
		readers[i] = bytes.NewReader(bufs[i].Bytes())
	}
	for _, l := range lost {
		readers[l] = nil
	}
	var out bytes.Buffer
	if err := c.StreamDecode(&out, readers, int64(len(payload)), chunk); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// streamShardBytes stream-encodes n bytes at the given chunk size and
// returns how many bytes each shard received.
func streamShardBytes(t *testing.T, c *Code, n, chunk int) []int {
	t.Helper()
	counts := make([]countWriter, c.k+c.m)
	writers := make([]io.Writer, len(counts))
	for i := range writers {
		writers[i] = &counts[i]
	}
	if _, err := c.StreamEncode(bytes.NewReader(make([]byte, n)), writers, chunk); err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(counts))
	for i, w := range counts {
		out[i] = int(w)
	}
	return out
}

type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// TestStorageOverhead: paper §I, RS(6,3) stores 1.5× the data it is given
// (3-replication stores 3×), RS(10,4) 1.4×.
func TestStorageOverhead(t *testing.T) {
	for _, tc := range []struct {
		k, m int
		want float64
	}{{6, 3, 1.5}, {10, 4, 1.4}} {
		n := tc.k * 4096 * 4
		stored := 0
		for _, b := range streamShardBytes(t, mustNew(tc.k, tc.m), n, 4096) {
			stored += b
		}
		if got := float64(stored) / float64(n); got != tc.want {
			t.Errorf("RS(%d,%d) overhead = %v, want %v", tc.k, tc.m, got, tc.want)
		}
	}
}

// TestPaperConfigsChunkMath: paper §V, with 4 KB chunks the stripe width of
// RS(6,3) is 24 KB and of RS(10,4) 40 KB, so that much data puts exactly
// one chunk on every shard.
func TestPaperConfigsChunkMath(t *testing.T) {
	for _, tc := range []struct{ k, m, width int }{{6, 3, 24 << 10}, {10, 4, 40 << 10}} {
		for i, b := range streamShardBytes(t, mustNew(tc.k, tc.m), tc.width, 4096) {
			if b != 4096 {
				t.Errorf("RS(%d,%d): shard %d got %d bytes of a %d-byte stripe, want 4096", tc.k, tc.m, i, b, tc.width)
			}
		}
	}
}

func TestStreamRoundTripExactStripe(t *testing.T) {
	c := mustNew(4, 2)
	payload := make([]byte, 4*512*3) // 3 full stripes at chunk 512
	rand.New(rand.NewSource(1)).Read(payload)
	got := streamRoundTrip(t, c, payload, 512, nil)
	if !bytes.Equal(got, payload) {
		t.Fatal("full-stripe stream round trip failed")
	}
}

func TestStreamRoundTripWithPadding(t *testing.T) {
	c := mustNew(6, 3)
	payload := make([]byte, 10_000) // not a stripe multiple
	rand.New(rand.NewSource(2)).Read(payload)
	got := streamRoundTrip(t, c, payload, 1024, nil)
	if !bytes.Equal(got, payload) {
		t.Fatal("padded stream round trip failed")
	}
}

func TestStreamDecodeWithErasures(t *testing.T) {
	c := mustNew(6, 3)
	payload := make([]byte, 50_000)
	rand.New(rand.NewSource(3)).Read(payload)
	got := streamRoundTrip(t, c, payload, 2048, []int{0, 3, 7}) // 2 data + 1 parity lost
	if !bytes.Equal(got, payload) {
		t.Fatal("stream reconstruction with erasures failed")
	}
}

func TestStreamTooManyErasures(t *testing.T) {
	c := mustNew(4, 2)
	readers := make([]io.Reader, 6)
	readers[0] = bytes.NewReader(nil)
	readers[1] = bytes.NewReader(nil)
	readers[2] = bytes.NewReader(nil)
	var out bytes.Buffer
	if err := c.StreamDecode(&out, readers, 100, 512); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestStreamShortShard(t *testing.T) {
	c := mustNew(4, 2)
	readers := make([]io.Reader, 6)
	for i := range readers {
		readers[i] = bytes.NewReader([]byte{1, 2, 3}) // shorter than a chunk
	}
	var out bytes.Buffer
	if err := c.StreamDecode(&out, readers, 4096, 512); !errors.Is(err, ErrShortShard) {
		t.Fatalf("err = %v, want ErrShortShard", err)
	}
}

func TestStreamValidation(t *testing.T) {
	c := mustNew(4, 2)
	if _, err := c.StreamEncode(bytes.NewReader([]byte{1}), make([]io.Writer, 2), 512); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong writer count: %v", err)
	}
	ws := make([]io.Writer, 6)
	for i := range ws {
		ws[i] = &bytes.Buffer{}
	}
	if _, err := c.StreamEncode(bytes.NewReader([]byte{1}), ws, 0); err == nil {
		t.Fatal("zero chunk size must fail")
	}
	if err := c.StreamDecode(&bytes.Buffer{}, make([]io.Reader, 1), 1, 512); !errors.Is(err, ErrShardCount) {
		t.Fatal("wrong reader count must fail")
	}
	if err := c.StreamDecode(&bytes.Buffer{}, make([]io.Reader, 6), 1, 0); err == nil {
		t.Fatal("zero chunk size decode must fail")
	}
}

func TestStreamEmptyInput(t *testing.T) {
	c := mustNew(4, 2)
	ws := make([]io.Writer, 6)
	bufs := make([]*bytes.Buffer, 6)
	for i := range ws {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	n, err := c.StreamEncode(bytes.NewReader(nil), ws, 512)
	if err != nil || n != 0 {
		t.Fatalf("empty encode: n=%d err=%v", n, err)
	}
	for i, b := range bufs {
		if b.Len() != 0 {
			t.Fatalf("shard %d received %d bytes for empty input", i, b.Len())
		}
	}
}

func TestStreamQuickProperty(t *testing.T) {
	c := mustNew(5, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+rng.Intn(20_000))
		rng.Read(payload)
		chunk := 256 << rng.Intn(3)
		var lost []int
		for _, l := range rng.Perm(7)[:rng.Intn(3)] {
			lost = append(lost, l)
		}
		got := streamRoundTrip(t, c, payload, chunk, lost)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStreamEncodePaddedTail checks the tail-only zeroing: a final partial
// stripe encoded through the (stale) pooled buffers must produce exactly
// the same shard bytes as a fresh encode of the zero-padded payload.
func TestStreamEncodePaddedTail(t *testing.T) {
	c := mustNew(4, 2)
	const chunk = 512
	// First stream a large payload to dirty the pooled buffers.
	dirty := make([]byte, 4*chunk*3)
	rand.New(rand.NewSource(31)).Read(dirty)
	ws := make([]io.Writer, 6)
	for i := range ws {
		ws[i] = io.Discard
	}
	if _, err := c.StreamEncode(bytes.NewReader(dirty), ws, chunk); err != nil {
		t.Fatal(err)
	}
	// Now encode a payload ending mid-chunk; the padding must read as zeros.
	payload := make([]byte, chunk+100)
	rand.New(rand.NewSource(32)).Read(payload)
	bufs := make([]*bytes.Buffer, 6)
	for i := range ws {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	if _, err := c.StreamEncode(bytes.NewReader(payload), ws, chunk); err != nil {
		t.Fatal(err)
	}
	// Reference: block-encode the explicitly zero-padded stripe.
	want := make([][]byte, 6)
	for i := range want {
		want[i] = make([]byte, chunk)
	}
	copy(want[0], payload[:chunk])
	copy(want[1], payload[chunk:])
	if err := c.Encode(want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(bufs[i].Bytes(), want[i]) {
			t.Fatalf("shard %d: pooled-buffer stream encode differs from zero-padded block encode", i)
		}
	}
}

// TestStreamEncodeSteadyStateAllocs is the allocation regression gate:
// encoding more stripes must not allocate more — the per-call pool
// acquisition is the only allocating step, so allocations per stripe are
// zero in steady state.
func TestStreamEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; alloc counts are not stable")
	}
	c := mustNew(6, 3)
	const chunk = 4096
	ws := make([]io.Writer, 9)
	for i := range ws {
		ws[i] = io.Discard
	}
	run := func(stripes int) float64 {
		payload := make([]byte, 6*chunk*stripes)
		rand.New(rand.NewSource(int64(stripes))).Read(payload)
		r := bytes.NewReader(payload)
		return testing.AllocsPerRun(5, func() {
			r.Reset(payload)
			if _, err := c.StreamEncode(r, ws, chunk); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(1) // warm the pool
	few, many := run(4), run(64)
	if many > few {
		t.Fatalf("allocations grow with stripe count: %v for 4 stripes, %v for 64 — want 0 allocs/stripe",
			few, many)
	}
}

// TestConcurrentSteadyStateAllocs extends the allocation gate to the
// WithConcurrency codec: with the runJobs task list pooled, carry-mode
// clusters running CodecConcurrency > 1 must be 0 allocs/stripe too, for
// block Encode and for streaming. Stripes are sized so the parallel
// fan-out actually engages (several spans, several workers).
func TestConcurrentSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; alloc counts are not stable")
	}
	c := mustNew(6, 3).WithConcurrency(4)
	const chunk = 32 << 10 // big enough that runJobs fans out across spans

	t.Run("Encode", func(t *testing.T) {
		shards := randShards(t, c, chunk, 77)
		// Warm the run-state and goroutine pools.
		for i := 0; i < 4; i++ {
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Fatalf("concurrent Encode allocates %v/call, want 0", allocs)
		}
	})

	t.Run("StreamEncode", func(t *testing.T) {
		ws := make([]io.Writer, 9)
		for i := range ws {
			ws[i] = io.Discard
		}
		run := func(stripes int) float64 {
			payload := make([]byte, 6*chunk*stripes)
			rand.New(rand.NewSource(int64(stripes))).Read(payload)
			r := bytes.NewReader(payload)
			return testing.AllocsPerRun(5, func() {
				r.Reset(payload)
				if _, err := c.StreamEncode(r, ws, chunk); err != nil {
					t.Fatal(err)
				}
			})
		}
		run(1) // warm the pools
		few, many := run(2), run(16)
		if many > few {
			t.Fatalf("concurrent streaming allocations grow with stripe count: %v for 2 stripes, %v for 16 — want 0 allocs/stripe",
				few, many)
		}
	})
}

// TestStreamDecodeSteadyStateAllocs: same gate for the decode side, with
// erasures — the recover matrix must be inverted once per stream, not per
// stripe, and stripe buffers must come from the pool.
func TestStreamDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; alloc counts are not stable")
	}
	c := mustNew(4, 2)
	const chunk = 1024
	encode := func(stripes int) ([][]byte, []byte) {
		payload := make([]byte, 4*chunk*stripes)
		rand.New(rand.NewSource(int64(stripes))).Read(payload)
		bufs := make([]*bytes.Buffer, 6)
		ws := make([]io.Writer, 6)
		for i := range ws {
			bufs[i] = &bytes.Buffer{}
			ws[i] = bufs[i]
		}
		if _, err := c.StreamEncode(bytes.NewReader(payload), ws, chunk); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, 6)
		for i := range out {
			out[i] = bufs[i].Bytes()
		}
		return out, payload
	}
	run := func(stripes int) float64 {
		shardBytes, payload := encode(stripes)
		readers := make([]io.Reader, 6)
		return testing.AllocsPerRun(5, func() {
			for i := range readers {
				readers[i] = bytes.NewReader(shardBytes[i])
			}
			readers[1] = nil // one data erasure: the recover path runs every stripe
			readers[4] = nil
			var sink countingWriter
			if err := c.StreamDecode(&sink, readers, int64(len(payload)), chunk); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(1)
	few, many := run(4), run(64)
	// The per-call cost (plan, readers) is constant; allow it, but nothing
	// may scale with stripe count.
	if many > few {
		t.Fatalf("decode allocations grow with stripe count: %v for 4 stripes, %v for 64", few, many)
	}
}

// countingWriter discards bytes without allocating.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkStreamEncode(b *testing.B) {
	c := mustNew(6, 3)
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(payload)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		ws := make([]io.Writer, 9)
		for j := range ws {
			ws[j] = io.Discard
		}
		if _, err := c.StreamEncode(bytes.NewReader(payload), ws, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamEncodeSteadyState is the allocation smoke the CI runs
// with -benchtime to surface allocs/op (and allocs/stripe as a metric):
// steady-state streaming must report 0 allocs/stripe.
func BenchmarkStreamEncodeSteadyState(b *testing.B) {
	c := mustNew(6, 3)
	const chunk = 4096
	const stripes = 64
	payload := make([]byte, 6*chunk*stripes)
	rand.New(rand.NewSource(10)).Read(payload)
	ws := make([]io.Writer, 9)
	for j := range ws {
		ws[j] = io.Discard
	}
	r := bytes.NewReader(payload)
	// Warm the buffer pool so the timed loop is pure steady state.
	if _, err := c.StreamEncode(r, ws, chunk); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	var allocs0, allocs1 runtime.MemStats
	runtime.ReadMemStats(&allocs0)
	for i := 0; i < b.N; i++ {
		r.Reset(payload)
		if _, err := c.StreamEncode(r, ws, chunk); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&allocs1)
	b.StopTimer()
	perStripe := float64(allocs1.Mallocs-allocs0.Mallocs) / float64(int64(b.N)*stripes)
	b.ReportMetric(perStripe, "allocs/stripe")
}
