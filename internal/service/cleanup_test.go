package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// parkDeleteStore parks every shard Delete until release is closed; each
// Delete that reaches it is announced on arrived first.
type parkDeleteStore struct {
	*MemStore
	arrived chan<- struct{}
	release <-chan struct{}
}

func (s parkDeleteStore) Delete(ctx context.Context, key string, shard int) error {
	s.arrived <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.MemStore.Delete(ctx, key, shard)
}

// parkedCleanups is a gateway over six MemStores whose shard Deletes park
// until release is called.
type parkedCleanups struct {
	gw      *Gateway
	mems    []*MemStore
	arrived chan struct{}
	release func()
}

func newParkedCleanups(t *testing.T, mutate func(*GatewayConfig)) *parkedCleanups {
	gate := make(chan struct{})
	var once sync.Once
	p := &parkedCleanups{
		mems:    make([]*MemStore, 6),
		arrived: make(chan struct{}, 64), // more than any test's deletes, retries included: announcing never blocks
		release: func() { once.Do(func() { close(gate) }) },
	}
	t.Cleanup(p.release) // a failed test leaves no delete parked
	stores := make([]ShardStore, len(p.mems))
	for i := range stores {
		p.mems[i] = NewMemStore(i)
		stores[i] = parkDeleteStore{p.mems[i], p.arrived, gate}
	}
	p.gw = buildGateway(t, stores, mutate)
	return p
}

// answers runs op and returns its error, failing the test if op does not
// return while the shard deletes are parked.
func (p *parkedCleanups) answers(t *testing.T, what string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		p.release()
		<-done
		t.Fatalf("%s did not answer while its shard deletes were parked", what)
		return nil
	}
}

// parked waits until n shard deletes have reached the stores.
func (p *parkedCleanups) parked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-p.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d shard deletes reached the stores", i, n)
		}
	}
}

func (p *parkedCleanups) inflight() int64 {
	return p.gw.reg.Gauge("ecgate_inflight").Value()
}

// onlyLive fails the test unless the stores hold exactly the shards of
// key's live generation: one per OSD the object was placed on, or none
// once the key is gone.
func (p *parkedCleanups) onlyLive(t *testing.T, key string) {
	t.Helper()
	var names []string
	for _, ms := range p.mems {
		names = append(names, ms.Keys()...)
	}
	meta, ok := p.gw.lookup(key)
	if !ok {
		if len(names) != 0 {
			t.Fatalf("%q is gone but the stores hold %q", key, names)
		}
		return
	}
	for _, name := range names {
		if !strings.HasPrefix(name, meta.skey+"#") {
			t.Fatalf("the stores hold %q, not of the live generation %q", name, meta.skey)
		}
	}
	if len(names) != len(meta.osds) {
		t.Fatalf("the stores hold %d shards of %q, want %d", len(names), meta.skey, len(meta.osds))
	}
}

// TestPutAnswersBeforeCleanup: a request answers once its outcome is
// decided and durable, not after the shard deletes it leaves behind. For
// an overwrite PUT (the superseded generation), a DELETE (the object) and
// a PUT rolled back because only 3 < k shards landed (its own generation),
// with every shard Delete parked: the request returns; a GET issued after
// it reads what it decided; ecgate_inflight reads 1, since the cleanup
// still holds the request's admission slot, until the deletes are let go,
// and 0 after; and then the stores hold only the live generation.
func TestPutAnswersBeforeCleanup(t *testing.T) {
	ctx := context.Background()
	older, newer := payload(96<<10, 1), payload(64<<10, 2)
	for _, c := range []struct {
		name    string
		op      func(p *parkedCleanups, osds []int) error
		deletes int    // shard deletes the request leaves behind
		read    []byte // what a GET after the answer returns; nil is ErrNotFound
		err     error  // what the request itself returns
	}{
		{"overwrite", func(p *parkedCleanups, _ []int) error {
			_, err := p.gw.PutObject(ctx, "k", newer)
			return err
		}, 6, newer, nil},
		{"delete", func(p *parkedCleanups, _ []int) error {
			return p.gw.DeleteObject(ctx, "k")
		}, 6, nil, nil},
		{"rollback", func(p *parkedCleanups, osds []int) error {
			for _, osd := range osds[:3] {
				if err := p.gw.osds[osd].store.SetFault(FaultSpec{Partition: true}); err != nil {
					return err
				}
			}
			_, err := p.gw.PutObject(ctx, "k", newer)
			for _, osd := range osds[:3] {
				if err := p.gw.osds[osd].store.SetFault(FaultSpec{}); err != nil {
					return err
				}
			}
			return err
		}, 3, older, ErrInsufficientShards},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newParkedCleanups(t, nil)
			oi, err := p.gw.PutObject(ctx, "k", older)
			if err != nil {
				t.Fatal(err)
			}
			err = p.answers(t, c.name, func() error { return c.op(p, oi.OSDs) })
			if !errors.Is(err, c.err) {
				t.Fatalf("%s: %v, want %v", c.name, err, c.err)
			}
			p.parked(t, c.deletes)
			got, _, err := p.gw.getObject(ctx, "k")
			if c.read == nil && !errors.Is(err, ErrNotFound) || c.read != nil && (err != nil || !bytes.Equal(got, c.read)) {
				t.Fatalf("get after the %s answered: err=%v, got the expected bytes: %v", c.name, err, c.read != nil && bytes.Equal(got, c.read))
			}
			if n := p.inflight(); n != 1 {
				t.Fatalf("ecgate_inflight = %d while the %s's deletes are parked, want 1", n, c.name)
			}
			p.release()
			drain(p.gw)
			if n := p.inflight(); n != 0 {
				t.Fatalf("ecgate_inflight = %d after the deletes finished, want 0", n)
			}
			p.onlyLive(t, "k")
		})
	}
}

// TestCloseDrainsCleanup: Close waits for the shard deletes of a request
// that has already answered, so a clean stop leaves no superseded
// generation behind.
func TestCloseDrainsCleanup(t *testing.T) {
	ctx := context.Background()
	p := newParkedCleanups(t, func(cfg *GatewayConfig) { cfg.MetaDir = t.TempDir() })
	if _, err := p.gw.PutObject(ctx, "k", payload(8<<10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.answers(t, "overwrite", func() error {
		_, err := p.gw.PutObject(ctx, "k", payload(8<<10, 2))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.parked(t, 6)
	closed := make(chan error, 1)
	go func() { closed <- p.gw.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the overwrite's shard deletes were parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the deletes were let go")
	}
	p.onlyLive(t, "k")
	if n := p.inflight(); n != 0 {
		t.Fatalf("ecgate_inflight = %d after Close, want 0", n)
	}
}
