package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Crash-safe gateway metadata: an append-only JSONL write-ahead log of
// put/delete records plus a snapshot file for compaction. A killed and
// restarted gateway replays snapshot+WAL and serves every previously
// written object byte-identically (the shard stores themselves hold the
// data; this persists the object→{generation key, placement, shard mask}
// index that was previously in-memory only).
//
// Layout under MetaDir:
//
//	meta.snap     full object index at the last compaction (JSONL of puts)
//	meta.wal      records appended since, fsynced per append
//	meta.wal.old  the rotated log of an in-progress compaction (transient)
//
// Compaction is two-phase so the expensive part runs outside the gateway
// lock: rotate (under the lock: rename meta.wal → meta.wal.old, fresh
// empty meta.wal) then writeSnapshot (no lock: marshal the rotated-point
// index copy to meta.snap via tmp+rename, drop meta.wal.old). A crash at
// any point replays snap + wal.old + wal — record replay is idempotent,
// so re-applying records the snapshot already covers is harmless — and
// startup finishes any interrupted compaction it finds.
//
// Torn tails: an append is acknowledged only after the full "record\n"
// line is written and fsynced, so any trailing bytes that do not form a
// newline-terminated record were never acknowledged. Replay ignores them
// and startup truncates them away, so the next append starts on a fresh
// line instead of concatenating onto the partial one.

const (
	walFileName    = "meta.wal"
	walOldFileName = "meta.wal.old"
	snapFileName   = "meta.snap"
)

// walRecord is one JSONL line: op "put" carries the full object meta,
// op "del" only the key. Chunk is written only when the object's stripe
// unit differs from the gateway's ChunkSize; a record without it — every
// record written before stripe geometry became per object — reads as
// ChunkSize.
type walRecord struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Size  int64  `json:"size,omitempty"`
	Chunk int    `json:"chunk,omitempty"`
	SKey  string `json:"skey,omitempty"`
	OSDs  []int  `json:"osds,omitempty"`
	OK    []bool `json:"ok,omitempty"`
}

// metaWAL is the gateway's durable metadata log. Callers (the gateway)
// serialize append/rotate access under their own lock so WAL order
// matches index order; writeSnapshot works on the caller's index copy
// and may run concurrently with appends.
type metaWAL struct {
	dir     string
	f       *os.File
	records int // appends since the last compaction
	compact int // compaction threshold (records)
	chunk   int // the stripe unit a record without a chunk field means
}

// openMetaWAL loads the snapshot and replays the WAL from dir (created if
// missing), returning the recovered object index and the highest backend
// generation stamp seen (the gateway resumes its generation counter above
// it so new PUTs can never collide with replayed shard keys). defaultChunk
// is the gateway's ChunkSize.
func openMetaWAL(dir string, compactThreshold, defaultChunk int) (*metaWAL, map[string]*objectMeta, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("service: meta dir: %w", err)
	}
	if compactThreshold <= 0 {
		compactThreshold = 1024
	}
	objects := map[string]*objectMeta{}
	if err := replayFile(filepath.Join(dir, snapFileName), objects, defaultChunk); err != nil {
		return nil, nil, 0, err
	}
	// A leftover rotated log means a compaction was interrupted before its
	// snapshot landed; whether or not meta.snap already covers its records,
	// replaying them is idempotent.
	oldPath := filepath.Join(dir, walOldFileName)
	hadOld := false
	if _, err := os.Stat(oldPath); err == nil {
		hadOld = true
		if err := replayFile(oldPath, objects, defaultChunk); err != nil {
			return nil, nil, 0, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("service: stat %s: %w", walOldFileName, err)
	}
	w := &metaWAL{dir: dir, compact: compactThreshold, chunk: defaultChunk}
	walPath := filepath.Join(dir, walFileName)
	n, good, err := replayWAL(walPath, objects, defaultChunk)
	if err != nil {
		return nil, nil, 0, err
	}
	w.records = n
	// Drop torn trailing bytes (crash mid-append) before reopening for
	// append: the next record must start on a fresh line, or it would
	// concatenate onto the partial one and corrupt both.
	if st, serr := os.Stat(walPath); serr == nil && st.Size() > good {
		if terr := os.Truncate(walPath, good); terr != nil {
			return nil, nil, 0, fmt.Errorf("service: truncate torn wal tail: %w", terr)
		}
	}
	maxGen := uint64(0)
	for _, m := range objects {
		if g := genOf(m.skey); g > maxGen {
			maxGen = g
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: open wal: %w", err)
	}
	w.f = f
	// Persist the directory entry itself (first boot creates meta.wal) so
	// power loss cannot lose the file the fsynced appends land in.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if hadOld {
		// Finish the interrupted compaction: the recovered index covers
		// everything the rotated log held.
		if err := w.writeSnapshot(objects); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	return w, objects, maxGen, nil
}

// genOf parses the generation stamp out of a backend key ("key@gen").
func genOf(skey string) uint64 {
	i := strings.LastIndexByte(skey, '@')
	if i < 0 {
		return 0
	}
	g, err := strconv.ParseUint(skey[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return g
}

// replayFile applies every record of a JSONL file to the index; a missing
// file is an empty log. A torn final line (crash mid-append) is ignored;
// corruption anywhere else is an error.
func replayFile(path string, objects map[string]*objectMeta, defaultChunk int) error {
	_, _, err := replayWAL(path, objects, defaultChunk)
	return err
}

// replayWAL applies a JSONL log to the index, returning the number of
// records applied and the byte offset just past the last fully applied,
// newline-terminated record. Anything beyond that offset — a partial line,
// or a final line missing its newline (the append was cut short before it
// could be acknowledged) — is a torn tail: tolerated here and truncated by
// openMetaWAL before the log is appended to again. A bad line with more
// records after it is real corruption and refuses to load. A put record
// without a chunk field is read at defaultChunk.
func replayWAL(path string, objects map[string]*objectMeta, defaultChunk int) (int, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("service: open %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var (
		n    int
		off  int64 // bytes consumed from the file so far
		good int64 // offset just past the last fully applied record
		torn error // first bad record, tolerated only as the tail
	)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return n, good, fmt.Errorf("service: read %s: %w", filepath.Base(path), rerr)
		}
		if payload := bytes.TrimRight(line, "\r\n"); len(payload) > 0 {
			if torn != nil {
				// A bad line followed by more records is real corruption,
				// not a torn tail.
				return n, good, torn
			}
			var rec walRecord
			aerr := json.Unmarshal(payload, &rec)
			switch {
			case aerr != nil:
				torn = fmt.Errorf("service: corrupt record in %s: %w", filepath.Base(path), aerr)
			case rerr == io.EOF:
				// Parses, but the trailing newline never reached the disk:
				// the append was never acknowledged.
				torn = fmt.Errorf("service: unterminated record in %s", filepath.Base(path))
			default:
				switch rec.Op {
				case "put":
					if rec.Chunk == 0 {
						rec.Chunk = defaultChunk
					}
					objects[rec.Key] = &objectMeta{size: rec.Size, chunk: rec.Chunk, skey: rec.SKey, osds: rec.OSDs, ok: rec.OK}
				case "del":
					delete(objects, rec.Key)
				default:
					torn = fmt.Errorf("service: unknown wal op %q in %s", rec.Op, filepath.Base(path))
				}
				if torn == nil {
					n++
					off += int64(len(line))
					good = off
				}
			}
		} else {
			// Blank line (or bare newline): harmless padding.
			off += int64(len(line))
			if torn == nil && rerr == nil {
				good = off
			}
		}
		if rerr == io.EOF {
			return n, good, nil
		}
	}
}

// append durably logs one record (write + fsync before returning, so an
// acknowledged PUT/DELETE survives a kill).
func (w *metaWAL) append(rec walRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: wal encode: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: wal sync: %w", err)
	}
	w.records++
	return nil
}

// putRecord is the one encoding of an index entry, for the log and the
// snapshot alike.
func (w *metaWAL) putRecord(key string, m *objectMeta) walRecord {
	rec := walRecord{Op: "put", Key: key, Size: m.size, SKey: m.skey, OSDs: m.osds, OK: m.ok}
	if m.chunk != w.chunk {
		rec.Chunk = m.chunk
	}
	return rec
}

func (w *metaWAL) appendPut(key string, m *objectMeta) error {
	return w.append(w.putRecord(key, m))
}

func (w *metaWAL) appendDelete(key string) error {
	return w.append(walRecord{Op: "del", Key: key})
}

// shouldCompact reports whether the WAL has outgrown the live index.
func (w *metaWAL) shouldCompact() bool { return w.records >= w.compact }

// rotate parks the live WAL as meta.wal.old and starts a fresh, empty
// one. The caller holds the gateway lock (so no append interleaves) and
// must follow up with writeSnapshot, which covers the parked records and
// removes the parked file. Refuses to rotate while a previous rotation's
// log still exists: those records are not yet covered by any snapshot,
// and renaming over them would lose acknowledged writes.
func (w *metaWAL) rotate() error {
	oldPath := filepath.Join(w.dir, walOldFileName)
	if _, err := os.Stat(oldPath); err == nil {
		return fmt.Errorf("service: previous compaction incomplete: %s exists", walOldFileName)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("service: stat %s: %w", walOldFileName, err)
	}
	walPath := filepath.Join(w.dir, walFileName)
	if err := os.Rename(walPath, oldPath); err != nil {
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	nf, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Roll the rename back so appends keep landing in a replayed path.
		_ = os.Rename(oldPath, walPath)
		return fmt.Errorf("service: wal reset: %w", err)
	}
	old := w.f
	w.f = nf
	w.records = 0
	_ = old.Close()
	return syncDir(w.dir)
}

// writeSnapshot atomically replaces meta.snap with the given index
// (tmp + fsync + rename + dir fsync) and drops the rotated log the
// snapshot now covers. Runs WITHOUT the gateway lock — the index is the
// caller's own copy — so requests keep flowing during the marshal+fsync.
func (w *metaWAL) writeSnapshot(objects map[string]*objectMeta) error {
	tmp := filepath.Join(w.dir, snapFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("service: snapshot: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for key, m := range objects {
		if err := enc.Encode(w.putRecord(key, m)); err != nil {
			f.Close()
			return fmt.Errorf("service: snapshot encode: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("service: snapshot flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapFileName)); err != nil {
		return fmt.Errorf("service: snapshot rename: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(w.dir, walOldFileName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: drop rotated wal: %w", err)
	}
	return syncDir(w.dir)
}

// syncDir fsyncs a directory so renames and file creations inside it
// survive power loss, not just process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("service: sync dir: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("service: sync dir: %w", serr)
	}
	return nil
}

// Close releases the WAL file.
func (w *metaWAL) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// WALSize reports the current WAL byte size (test/ops visibility).
func (w *metaWAL) size() int64 {
	st, err := w.f.Stat()
	if err != nil {
		return -1
	}
	return st.Size()
}
