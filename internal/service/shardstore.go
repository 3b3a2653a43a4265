package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Sentinel errors shared by every ShardStore implementation. The HTTP
// layers map them to status codes (404, 503) and back, so the gateway's
// behaviour is identical across in-process and remote backends.
var (
	// ErrNotFound reports a shard (or object) that does not exist.
	ErrNotFound = errors.New("service: not found")
	// ErrOSDDown reports an OSD that is partitioned (FaultSpec.Partition)
	// or unreachable.
	ErrOSDDown = errors.New("service: osd down")
)

// OSDStat is one OSD backend's self-reported state, surfaced on the
// daemon's /v1/stat and the gateway's /v1/osds.
type OSDStat struct {
	ID      int    `json:"id"`
	Backend string `json:"backend"`
	Host    string `json:"host,omitempty"`
	Shards  int64  `json:"shards"`
	Bytes   int64  `json:"bytes"`
	// SimSeconds is the simulated-time cost this OSD has accumulated
	// serving shard ops (virtual-cluster backend only).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
}

// ShardStore is the seam between the access gateway and one OSD's shard
// storage: the BlobNode-facing contract. Implementations must be safe for
// concurrent use and must honour ctx cancellation at least between ops.
//
// Shard buffers change hands instead of being copied: a shard is replaced
// or deleted as a whole, never edited, so one buffer can be the caller's,
// the store's and a reader's at once as long as nobody writes to it.
type ShardStore interface {
	// Put stores one shard of an object, overwriting any previous bytes.
	// The store may keep data; do not modify it after the call.
	Put(ctx context.Context, key string, shard int, data []byte) error
	// Get returns the shard's bytes, ErrNotFound if absent. The result may
	// be the store's own buffer; do not modify the result.
	Get(ctx context.Context, key string, shard int) ([]byte, error)
	// Delete removes the shard; deleting an absent shard returns
	// ErrNotFound (callers that want idempotence ignore it).
	Delete(ctx context.Context, key string, shard int) error
	// Stat reports the OSD's state.
	Stat(ctx context.Context) (OSDStat, error)
}

// SimClock is implemented by backends that accumulate simulated time (the
// virtual cluster); the gateway surfaces it on /v1/status when present.
type SimClock interface{ SimSeconds() float64 }

// shardName is the canonical backend object name for (key, shard).
func shardName(key string, shard int) string {
	return fmt.Sprintf("%s#%d", key, shard)
}

// MemStore is a mutex-guarded in-memory ShardStore: the default ecstored
// backend and the cheapest test double. It keeps the buffer Put is given
// and Get returns the buffer it holds; an overwrite or Delete drops the
// store's reference and leaves a reader's bytes as they were.
type MemStore struct {
	id   int
	host string

	mu     sync.RWMutex
	shards map[string][]byte
	bytes  int64
}

// NewMemStore returns an empty in-memory shard store for OSD id.
func NewMemStore(id int) *MemStore {
	return &MemStore{id: id, shards: map[string][]byte{}}
}

// SetHost labels the store with a host name (placement display only).
func (s *MemStore) SetHost(h string) { s.host = h }

// Put implements ShardStore.
func (s *MemStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	name := shardName(key, shard)
	if old, ok := s.shards[name]; ok {
		s.bytes -= int64(len(old))
	}
	s.shards[name] = data
	s.bytes += int64(len(data))
	return nil
}

// Get implements ShardStore.
func (s *MemStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, ok := s.shards[shardName(key, shard)]
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Delete implements ShardStore.
func (s *MemStore) Delete(ctx context.Context, key string, shard int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	name := shardName(key, shard)
	data, ok := s.shards[name]
	if !ok {
		return ErrNotFound
	}
	s.bytes -= int64(len(data))
	delete(s.shards, name)
	return nil
}

// Stat implements ShardStore.
func (s *MemStore) Stat(ctx context.Context) (OSDStat, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return OSDStat{}, err
	}
	return OSDStat{
		ID:      s.id,
		Backend: "mem",
		Host:    s.host,
		Shards:  int64(len(s.shards)),
		Bytes:   s.bytes,
	}, nil
}

// Keys returns the stored shard names in sorted order (test helper).
func (s *MemStore) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.shards))
	for k := range s.shards {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
