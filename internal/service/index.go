package service

import (
	"log/slog"
	"sync"
)

// objectMeta is the gateway's object index entry: logical size, the
// stripe unit it was encoded at (Gateway.chunkFor), the CRUSH-placed OSD
// per shard, and which shards actually landed. skey is
// the generation-stamped backend key ("key@gen"): each PUT writes a fresh
// generation, so a failed overwrite is rolled back without touching the
// previous object's shards. Entries are immutable once indexed.
type objectMeta struct {
	size  int64
	chunk int
	skey  string
	osds  []int
	ok    []bool // shard i written successfully at PUT time
}

// metaIndex is the gateway's object index: key → objectMeta in memory,
// and, with a WAL attached, logged durably before any change is visible.
// The request path uses lookup, commit and remove only; the WAL's
// append order, rotation and snapshot compaction stay in here.
type metaIndex struct {
	mu         sync.RWMutex
	objects    map[string]*objectMeta
	stored     int64    // sum of object sizes
	wal        *metaWAL // nil when MetaDir is unset
	compacting bool     // a snapshot write is running outside the lock

	logger *slog.Logger   // compaction failures (non-fatal)
	m      *gatewaySeries // objects, bytesStored, walRecords, walCompactions
}

// openMetaIndex returns an empty in-memory index when dir is "", else the
// index replayed from the WAL in dir plus the highest generation stamp it
// holds (see openMetaWAL).
func openMetaIndex(dir string, compactThreshold, defaultChunk int, logger *slog.Logger, m *gatewaySeries) (*metaIndex, uint64, error) {
	x := &metaIndex{objects: map[string]*objectMeta{}, logger: logger, m: m}
	if dir == "" {
		return x, 0, nil
	}
	wal, objects, maxGen, err := openMetaWAL(dir, compactThreshold, defaultChunk)
	if err != nil {
		return nil, 0, err
	}
	x.wal, x.objects = wal, objects
	for _, m := range objects {
		x.stored += m.size
	}
	x.publish()
	return x, maxGen, nil
}

// publish sets the index gauges, which /v1/status also reads; the caller
// holds x.mu or is the only user.
func (x *metaIndex) publish() {
	x.m.objects.Set(int64(len(x.objects)))
	x.m.bytesStored.Set(x.stored)
}

// lookup returns key's entry.
func (x *metaIndex) lookup(key string) (*objectMeta, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	m, ok := x.objects[key]
	return m, ok
}

// commit makes meta the entry for key and returns the entry it replaced
// (nil if none), whose shards the caller now owns. On error the index is
// untouched and the caller must roll meta's shards back.
func (x *metaIndex) commit(key string, meta *objectMeta) (*objectMeta, error) {
	x.mu.Lock()
	if x.wal != nil {
		// Durably log before the in-memory index moves: an acknowledged
		// PUT must survive a kill.
		if err := x.wal.appendPut(key, meta); err != nil {
			x.mu.Unlock()
			return nil, err
		}
		x.m.walRecords.Inc()
	}
	old := x.objects[key]
	if old != nil {
		x.stored -= old.size
	}
	x.objects[key] = meta
	x.stored += meta.size
	x.publish()
	var snap map[string]*objectMeta
	if x.wal != nil && x.wal.shouldCompact() && !x.compacting {
		// Rotate under the lock (rename + fresh file, cheap); the
		// expensive snapshot marshal+fsync runs after Unlock so
		// compaction never stalls other requests. objectMeta values are
		// immutable once indexed, so a shallow copy is a consistent
		// rotation-point snapshot.
		x.compacting = true
		if err := x.wal.rotate(); err != nil {
			// Safe either way: the full-index snapshot below also
			// covers the records still sitting in the unrotated WAL.
			x.logger.Error("wal rotation failed", slog.String("error", err.Error()))
		}
		snap = make(map[string]*objectMeta, len(x.objects))
		for k, m := range x.objects {
			snap[k] = m
		}
	}
	x.mu.Unlock()
	if snap != nil {
		if err := x.wal.writeSnapshot(snap); err != nil {
			x.logger.Error("wal compaction failed", slog.String("error", err.Error()))
		} else {
			x.m.walCompactions.Inc()
		}
		x.mu.Lock()
		x.compacting = false
		x.mu.Unlock()
	}
	return old, nil
}

// remove forgets key and returns its entry, whose shards the caller now
// owns; ErrNotFound if there is none. On a WAL error the entry stays:
// better to keep serving the object than to resurrect it after a restart.
func (x *metaIndex) remove(key string) (*objectMeta, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	meta, ok := x.objects[key]
	if !ok {
		return nil, ErrNotFound
	}
	if x.wal != nil {
		if err := x.wal.appendDelete(key); err != nil {
			return nil, err
		}
		x.m.walRecords.Inc()
	}
	delete(x.objects, key)
	x.stored -= meta.size
	x.publish()
	return meta, nil
}
