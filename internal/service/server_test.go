package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
)

// bodySink is a daemon's end of a connection that keeps the buffers the
// daemon reads into and writes from, not copies of them, each read with
// the stream offset it starts at.
type bodySink struct {
	net.Conn
	mu     sync.Mutex
	off    int
	reads  []sinkRead
	writes [][]byte
}

type sinkRead struct {
	off int
	p   []byte
}

func (c *bodySink) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reads = append(c.reads, sinkRead{c.off, p})
	c.off += n
	c.mu.Unlock()
	return n, err
}

func (c *bodySink) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// readAt returns the buffer of the read that started at stream offset off.
func (c *bodySink) readAt(off int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.reads {
		if r.off == off {
			return r.p
		}
	}
	return nil
}

// lastWrite returns the buffer written last.
func (c *bodySink) lastWrite() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes[len(c.writes)-1]
}

// TestOSDServerKeepsBody: over a MemStore, an n-byte shard PUT allocates
// about n bytes, the buffer the body is read into, which is what is
// stored; and a GET allocates no buffer the size of a shard: it writes the
// stored buffer itself.
func TestOSDServerKeepsBody(t *testing.T) {
	const n = 768 << 10
	ms := NewMemStore(0)
	cli, srv := net.Pipe()
	defer cli.Close()
	sink := &bodySink{Conn: srv, reads: make([]sinkRead, 0, 64), writes: make([][]byte, 0, 64)}
	go NewOSDServer(0, ms, nil).serveConn(sink)
	data := payload(n, 3)
	heads := map[string]string{
		http.MethodPut: "PUT /v1/shards/k@1/2 HTTP/1.1\r\nHost: osd\r\nContent-Length: " + strconv.Itoa(n) + "\r\n\r\n",
		http.MethodGet: "GET /v1/shards/k@1/2 HTTP/1.1\r\nHost: osd\r\n\r\n",
	}
	h, answer := &headReader{br: bufio.NewReader(cli)}, make([]byte, n)
	var sent, bodyAt int
	serve := func(method string) (code int) {
		head := heads[method]
		if _, err := io.WriteString(cli, head); err != nil {
			t.Fatal(err)
		}
		sent += len(head)
		if method == http.MethodPut {
			bodyAt = sent
			if _, err := cli.Write(data); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		var a httpHead
		err := h.readHead(&a, true)
		if err == nil {
			_, err = io.ReadFull(h.br, answer[:a.declared])
		}
		if err != nil {
			t.Fatal(err)
		}
		return a.code
	}
	serve(http.MethodPut) // warm-up: registry series, log attrs
	serve(http.MethodGet)

	var put, get int
	putBytes := allocatedBy(func() { put = serve(http.MethodPut) })
	read := sink.readAt(bodyAt)
	getBytes := allocatedBy(func() { get = serve(http.MethodGet) })
	if put != http.StatusOK || get != http.StatusOK {
		t.Fatalf("put %d, get %d, want 200s", put, get)
	}
	if putBytes < n || putBytes > n+64<<10 {
		t.Fatalf("a %d-byte shard PUT allocated %d bytes, want the shard and at most 64 KiB more", n, putBytes)
	}
	if getBytes > n/4 {
		t.Fatalf("a %d-byte shard GET allocated %d bytes, want no shard-sized buffer", n, getBytes)
	}
	stored, err := ms.kept("k@1", 2)
	if err != nil || !bytes.Equal(stored, data) || cap(stored) != n {
		t.Fatalf("stored %d bytes in a buffer of %d (err %v), want the %d sent in an exact-length buffer", len(stored), cap(stored), err, n)
	}
	if len(read) == 0 || &read[0] != &stored[0] {
		t.Fatal("the PUT did not store the buffer it read the body into")
	}
	if first := sink.lastWrite(); len(first) != n || &first[0] != &stored[0] {
		t.Fatal("the GET did not write the stored buffer itself")
	}
}

// TestKeptShardReadsRaceOverwrites: ecstored serves GETs from the buffers
// MemStore stores while other requests overwrite and delete the same
// shard. A stored buffer is never modified once kept, so every read
// returns one version intact or ErrNotFound; under -race, a write into a
// buffer while it is being served would be reported.
func TestKeptShardReadsRaceOverwrites(t *testing.T) {
	oc := NewOSDClient(0, startDaemon(t, NewOSDServer(0, NewMemStore(0), nil)).URL)
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
