package core

import (
	"fmt"

	"ecarray/internal/sim"
)

// writeReplicated implements the §II-B replication write path: the client
// sends the object write to the PG's primary OSD; the primary journals it in
// its PG log, applies it locally, and pushes full copies to the secondary
// and tertiary OSDs over the private network; the commit is acknowledged to
// the client once all replicas are durable. The private network therefore
// carries at least (replicas-1)× the received data.
func (pl *Pool) writeReplicated(p *sim.Proc, obj string, off int64, data []byte, length int64) error {
	cm := &pl.c.cfg.Cost
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if primID < 0 {
		return fmt.Errorf("core: pg %d.%d has no live OSDs", pl.id, pg.id)
	}
	prim := pl.c.osds[primID]

	pl.c.sendPublicToPrimary(p, prim.Node, length)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLogUser+cm.PGLockBaseline+cm.TxnPrepUser, 0)

	commits := sim.NewLatch(pl.c.e, pg.liveShards())
	for pos, osdID := range pg.shards {
		if !pg.live(pos) {
			continue
		}
		osd := pl.c.osds[osdID]
		pl.c.e.GoNamed("rep", obj, -1, func(sp *sim.Proc) {
			pl.c.pushShard(sp, prim, osd, obj, off, data, length)
			// Commit handling at the primary re-takes the PG lock briefly.
			pg.lock.Acquire(sp, 1)
			prim.Node.CPU.Exec(sp, cm.CommitUser, 0)
			pg.lock.Release(1)
			commits.Done()
		})
	}
	pg.noteObject(obj, off+length)
	pg.noteWrite(obj)
	pg.lock.Release(1)
	prim.Workers.Release(1)
	commits.Wait(p)

	pl.c.sendPublicToClient(p, prim.Node, 0)
	return nil
}

// readReplicated serves reads from the primary replica only: no replica
// traffic, no coding work — the baseline against which the paper measures
// RS-concatenation overheads.
func (pl *Pool) readReplicated(p *sim.Proc, obj string, off, length int64) ([]byte, error) {
	cm := &pl.c.cfg.Cost
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if primID < 0 {
		return nil, fmt.Errorf("core: pg %d.%d has no live OSDs", pl.id, pg.id)
	}
	prim := pl.c.osds[primID]

	pl.c.sendPublicToPrimary(p, prim.Node, 0)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLockBaseline, 0)
	pg.lock.Release(1)

	var data []byte
	if pl.c.cfg.Gray.tailEnabled() {
		// Tail-tolerant read: the primary replica is preferred, but a request
		// past the deadline (or hedged) fails over to a secondary, which holds
		// an identical full copy of the object.
		_, results, err := pl.tailFetch(p, pg, prim, obj, pg.sources(nil, len(pg.shards)), 1, off, length)
		if err != nil {
			prim.Workers.Release(1)
			return nil, err
		}
		data = results[0]
	} else {
		data = pl.c.pullShard(p, prim, prim, obj, off, length)
	}
	prim.Workers.Release(1)

	pl.c.sendPublicToClient(p, prim.Node, length)
	return data, nil
}
