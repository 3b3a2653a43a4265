package service

import (
	"bytes"
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
}

// ShardStore is the seam between the access gateway and one OSD's shard
// storage: the BlobNode-facing contract. Implementations must be safe for
// concurrent use and must honour ctx cancellation at least between ops.
//
// Every shard buffer has one owner at a time. Put borrows the caller's
// buffer and Get hands its result over, so each side of the seam can reuse
// its buffers (the gateway and ecstored recycle theirs through a pool)
// without anyone else seeing the bytes change.
type ShardStore interface {
	// Put stores one shard of an object, overwriting any previous bytes.
	// It reads data only until it returns: a store that keeps the bytes
	// keeps its own copy, and the caller may reuse data afterwards.
	Put(ctx context.Context, key string, shard int, data []byte) error
	// Get returns the shard's bytes, ErrNotFound if absent. The result
	// belongs to the caller, who may modify or reuse it.
	Get(ctx context.Context, key string, shard int) ([]byte, error)
	// Delete removes the shard; deleting an absent shard returns
	// ErrNotFound (callers that want idempotence ignore it).
	Delete(ctx context.Context, key string, shard int) error
	// Stat reports the OSD's state.
	Stat(ctx context.Context) (OSDStat, error)
}

// shardName is the canonical backend object name for (key, shard).
func shardName(key string, shard int) string {
	return fmt.Sprintf("%s#%d", key, shard)
}

// MemStore is a mutex-guarded in-memory ShardStore: the default ecstored
// backend and the cheapest test double. It holds each shard in one
// exact-length buffer of its own (keep), which an overwrite or a delete
// replaces or drops as a whole and nothing ever modifies, so a stored
// buffer is read outside the lock and may be shared (kept). Put keeps a
// copy of what it is given, and Get returns a copy in a shard-pool buffer;
// OSDServer instead hands keep the body buffer it read and serves what
// kept returns, with no copy either way.
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

// keep stores buf as the shard's bytes and takes it over: nobody may
// modify it again. Its whole capacity stays held while the shard is
// stored, so it should be exact-length (a pool buffer would hold its
// class's capacity).
func (s *MemStore) keep(key string, shard int, buf []byte) {
	name := shardName(key, shard)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.shards[name]; ok {
		s.bytes -= int64(len(old))
	}
	s.shards[name] = buf
	s.bytes += int64(len(buf))
}

// kept returns the buffer the shard is stored in, ErrNotFound if absent.
// It stays the store's: the caller reads it and neither modifies nor
// recycles it.
func (s *MemStore) kept(key string, shard int) ([]byte, error) {
	name := shardName(key, shard)
	s.mu.RLock()
	data, ok := s.shards[name]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Put implements ShardStore.
func (s *MemStore) Put(ctx context.Context, key string, shard int, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.keep(key, shard, bytes.Clone(data))
	return nil
}

// Get implements ShardStore.
func (s *MemStore) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := s.kept(key, shard)
	if err != nil {
		return nil, err
	}
	out := getShardBuf(len(data))
	copy(out, data)
	return out, nil
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
