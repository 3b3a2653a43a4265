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

	pl.c.send(p, pl.c.public, pl.c.client, prim.Node, length)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLogUser+cm.PGLockBaseline+cm.TxnPrepUser, 0)

	// Commit handling at the primary re-takes the PG lock briefly.
	push := pl.c.getPush(pg, prim, obj, off, length, true)
	for pos := range push.payload {
		push.payload[pos] = data
	}
	push.start("rep", false)
	pg.noteObject(obj, off+length)
	pg.noteWrite(obj)
	pg.lock.Release(1)
	prim.Workers.Release(1)
	push.wait(p)

	pl.c.send(p, pl.c.public, prim.Node, pl.c.client, 0)
	return nil
}

// readReplicated serves reads from the primary replica: no replica traffic,
// no coding work — the baseline against which the paper measures
// RS-concatenation overheads. Only a faulted request, or one the
// gray-failure knobs abandon or hedge, falls over to a secondary, which
// holds an identical full copy.
func (pl *Pool) readReplicated(p *sim.Proc, obj string, off, length int64) ([]byte, error) {
	cm := &pl.c.cfg.Cost
	pg := pl.pgOf(obj)
	_, primID := pg.primary()
	if primID < 0 {
		return nil, fmt.Errorf("core: pg %d.%d has no live OSDs", pl.id, pg.id)
	}
	prim := pl.c.osds[primID]

	pl.c.send(p, pl.c.public, pl.c.client, prim.Node, 0)

	prim.Workers.Acquire(p, 1)
	pg.lock.Acquire(p, 1)
	prim.Node.CPU.Exec(p, cm.DispatchUser+cm.PGLockBaseline, 0)
	pg.lock.Release(1)

	race, err := pl.tailFetch(p, pg, prim, obj, 1, off, length)
	prim.Workers.Release(1)
	if err != nil {
		return nil, err
	}
	data := race.results[0]
	race.release()

	pl.c.send(p, pl.c.public, prim.Node, pl.c.client, length)
	return data, nil
}
