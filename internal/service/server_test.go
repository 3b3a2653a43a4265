package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// bodySink is a ResponseWriter that keeps the first buffer a handler
// writes, not a copy of it.
type bodySink struct {
	header http.Header
	code   int
	first  []byte
}

func (w *bodySink) Header() http.Header { return w.header }

func (w *bodySink) WriteHeader(code int) { w.code = code }

func (w *bodySink) Write(p []byte) (int, error) {
	if w.first == nil {
		w.first = p
	}
	return len(p), nil
}

// firstRead is a request body that keeps the first buffer it is read into.
type firstRead struct {
	r     io.Reader
	first []byte
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.first == nil {
		f.first = p
	}
	return f.r.Read(p)
}

// TestOSDServerKeepsBody: over a MemStore, an n-byte shard PUT allocates
// about n bytes, the buffer the body is read into, which is what is
// stored; and a GET allocates no buffer the size of a shard: it writes the
// stored buffer itself.
func TestOSDServerKeepsBody(t *testing.T) {
	const n = 768 << 10
	ms := NewMemStore(0)
	h := NewOSDServer(0, ms, nil).Handler()
	data := payload(n, 3)
	var body *firstRead
	serve := func(method string) *bodySink {
		body = &firstRead{r: bytes.NewReader(data)}
		r := httptest.NewRequest(method, "/v1/shards/k@1/2", body)
		r.ContentLength = n
		w := &bodySink{header: http.Header{}}
		h.ServeHTTP(w, r)
		return w
	}
	serve(http.MethodPut) // warm-up: registry series, log attrs
	serve(http.MethodGet)

	var put, get *bodySink
	putBytes := allocatedBy(func() { put = serve(http.MethodPut) })
	read := body.first
	getBytes := allocatedBy(func() { get = serve(http.MethodGet) })
	if put.code != http.StatusOK || get.code != http.StatusOK {
		t.Fatalf("put %d, get %d, want 200s", put.code, get.code)
	}
	if putBytes < n || putBytes > n+64<<10 {
		t.Fatalf("a %d-byte shard PUT allocated %d bytes, want the shard and at most 64 KiB more", n, putBytes)
	}
	if getBytes > n/4 {
		t.Fatalf("a %d-byte shard GET allocated %d bytes, want no shard-sized buffer", n, getBytes)
	}
	stored, err := ms.kept(context.Background(), "k@1", 2)
	if err != nil || !bytes.Equal(stored, data) || cap(stored) != n {
		t.Fatalf("stored %d bytes in a buffer of %d (err %v), want the %d sent in an exact-length buffer", len(stored), cap(stored), err, n)
	}
	if len(read) == 0 || &read[0] != &stored[0] {
		t.Fatal("the PUT did not store the buffer it read the body into")
	}
	if len(get.first) != n || &get.first[0] != &stored[0] {
		t.Fatal("the GET did not write the stored buffer itself")
	}
}

// TestKeptShardReadsRaceOverwrites: ecstored serves GETs from the buffers
// MemStore stores while other requests overwrite and delete the same
// shard. A stored buffer is never modified once kept, so every read
// returns one version intact or ErrNotFound; under -race, a write into a
// buffer while it is being served would be reported.
func TestKeptShardReadsRaceOverwrites(t *testing.T) {
	srv := httptest.NewServer(NewOSDServer(0, NewMemStore(0), nil).Handler())
	defer srv.Close()
	oc := NewOSDClient(0, srv.URL)
	ctx := context.Background()
	versions := [][]byte{payload(64<<10, 1), payload(64<<10, 2), payload(96<<10, 3)}
	if err := oc.Put(ctx, "k@1", 0, versions[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := oc.Get(ctx, "k@1", 0)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				intact := false
				for _, v := range versions {
					intact = intact || bytes.Equal(got, v)
				}
				putShardBuf(got)
				if !intact {
					errs <- errors.New("a GET returned bytes of no version")
					return
				}
			}
		}()
	}
	for i := range 150 {
		var err error
		if i%5 == 4 {
			if err = oc.Delete(ctx, "k@1", 0); errors.Is(err, ErrNotFound) {
				err = nil
			}
		} else {
			err = oc.Put(ctx, "k@1", 0, versions[i%len(versions)])
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
