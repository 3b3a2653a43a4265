// Package core implements the distributed SSD-array storage cluster the
// reproduced paper characterizes: a Ceph-like system with monitors (cluster
// maps), placement groups, primary OSDs, a replicated backend and an
// erasure-coded backend over a from-scratch Reed-Solomon codec, RBD-style
// image striping, and the public/private network split of §II-A.
//
// Everything runs inside a deterministic discrete-event simulation
// (internal/sim); CPU, network, SSD and object-store substrates charge
// virtual time and maintain the counters behind every figure of the paper's
// evaluation (throughput/latency, CPU utilization and context switches, I/O
// amplification, private network traffic, and data-layout effects).
//
// What a primary pays to move a shard to or from another OSD — the model
// behind the I/O-amplification and private-network figures, and behind the
// §II-C repair cost — is priced in exactly one place: pushShard and
// pullShard in cluster.go, each one hold chain. The foreground paths
// (ec.go, replicated.go, tailfetch.go) run it in a chain-only process per
// shard; the repair passes (recovery.go, backfill.go, scrub.go) drive it
// through Proc.Hold (push, pull). Both only decide which shards move.
package core

import (
	"fmt"
	"slices"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/netsim"
	"ecarray/internal/qos"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
	"ecarray/internal/store"
)

// ClientNode is the node name of the client host on the public network.
const ClientNode = "client"

// Node is one server: a name on the networks plus a core pool.
type Node struct {
	Name      string
	CPU       *CPU
	pub, priv int // NIC indexes on the networks; the client has no private one
}

// OSD is one object storage daemon bound to one device.
type OSD struct {
	ID      int
	Node    *Node
	Store   *store.Store
	Workers *sim.Resource
	up      bool
}

// Up reports whether the OSD is in service.
func (o *OSD) Up() bool { return o.up }

// Cluster is the assembled storage system.
type Cluster struct {
	cfg      Config
	e        *sim.Engine
	public   *netsim.Network
	private  *netsim.Network
	client   *Node
	nodes    []*Node
	osds     []*OSD
	cmap     *crush.Map
	pools    map[string]*Pool
	poolList []*Pool // creation order, for deterministic iteration
	poolSeq  int
	stopped  bool
	races    []*shardRace // pooled per-op fan-out state
	pushes   []*shardPush
	xfers    []*transfer

	imageQueue  *sim.Resource // client librbd dispatch serialization
	metricsFrom sim.Time
	eventHook   func(ClusterEvent)

	gray  []osdGray // per-OSD gray-failure state (gray.go)
	grayM GrayMetrics

	qosM         QoSMetrics          // per-tenant admission ledger (qos.go)
	qosTraces    []qos.DecisionTrace // rejection trace ring
	qosTraceNext int
}

// New builds a cluster per the config and starts its background daemons
// (OSD heartbeats). The engine is owned by the caller; nothing runs until
// the engine runs.
func New(e *sim.Engine, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:        cfg,
		e:          e,
		pools:      map[string]*Pool{},
		imageQueue: sim.NewResource(e, "client/librbd", 1),
	}
	c.public = netsim.New(e, cfg.Public)
	c.private = netsim.New(e, cfg.Private)

	c.client = &Node{Name: ClientNode, CPU: newCPU(e, ClientNode, cfg.ClientCores, &c.cfg.Cost), priv: -1}
	c.client.pub = c.public.AddNode(ClientNode)

	for n := 0; n < cfg.StorageNodes; n++ {
		name := fmt.Sprintf("node%d", n)
		node := &Node{Name: name, CPU: newCPU(e, name, cfg.CoresPerStorageNode, &c.cfg.Cost)}
		c.nodes = append(c.nodes, node)
		node.pub = c.public.AddNode(name)
		node.priv = c.private.AddNode(name)
	}
	c.cmap = crush.Uniform(cfg.StorageNodes, cfg.OSDsPerNode)

	devCfg := cfg.Device
	devCfg.Capacity = cfg.DeviceCapacity
	devCfg.CarryData = cfg.CarryData
	for id := 0; id < cfg.StorageNodes*cfg.OSDsPerNode; id++ {
		node := c.nodes[id/cfg.OSDsPerNode]
		dev, err := ssd.New(e, fmt.Sprintf("osd%d/dev", id), devCfg)
		if err != nil {
			return nil, err
		}
		st, err := store.New(e, dev, cfg.Store, cfg.CarryData)
		if err != nil {
			return nil, err
		}
		c.osds = append(c.osds, &OSD{
			ID:      id,
			Node:    node,
			Store:   st,
			Workers: sim.NewResource(e, fmt.Sprintf("osd%d/workers", id), cfg.OSDWorkers),
			up:      true,
		})
	}
	c.gray = make([]osdGray, len(c.osds))
	c.scheduleHeartbeat()
	return c, nil
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.e }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// OSDs returns the OSD daemons.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// Nodes returns the storage nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// PrivateNetwork returns the storage-side network.
func (c *Cluster) PrivateNetwork() *netsim.Network { return c.private }

// Stop halts background daemons so a finished simulation can drain.
func (c *Cluster) Stop() { c.stopped = true }

// scheduleHeartbeat implements the §II-A OSD health checks: every interval,
// each OSD pings its peers over the private network — the paper's ~20 KB/s
// "almost zero" baseline of Figs 1 and 17.
//
// One long-lived process per OSD (named once at construction) parks on a
// Waker between rounds; a single scheduled tick wakes the up OSDs each
// interval. Steady-state heartbeats therefore spawn no processes and format
// no names. While a round finishes within the interval — sends take
// microseconds against a multi-second interval — this produces the exact
// event sequence of the old spawn-per-tick scheme (one wakeup per up OSD
// per interval, in OSD order). If the private network ever backs a round up
// past the interval, pending wakes are counted and the rounds run
// back-to-back rather than overlapping as separately spawned processes
// would have; no round is dropped either way.
func (c *Cluster) scheduleHeartbeat() {
	cm := &c.cfg.Cost
	wakers := make([]*sim.Waker, len(c.osds))
	for i, o := range c.osds {
		osd := o
		w := sim.NewWaker(c.e)
		wakers[i] = w
		c.e.Go(fmt.Sprintf("hb/osd%d", osd.ID), func(p *sim.Proc) {
			for {
				w.Wait(p)
				for _, peer := range c.osds {
					if peer == osd || !peer.up || peer.Node == osd.Node {
						continue
					}
					var b [3]sim.Stage
					p.Hold(c.private.Message(b[:0], osd.Node.priv, peer.Node.priv, cm.HeartbeatBytes)...)
				}
			}
		})
	}
	var tick func()
	tick = func() {
		if c.stopped {
			return
		}
		for i, o := range c.osds {
			if !o.up {
				continue
			}
			wakers[i].Wake()
		}
		c.e.Schedule(cm.HeartbeatInterval, tick)
	}
	c.e.Schedule(cm.HeartbeatInterval, tick)
}

// MarkOSDOut fails an OSD: it leaves placement and all PG acting sets.
// Erasure-coded pools serve reads on such PGs by reconstruction. Failing an
// already-out OSD is a no-op (no placement mutation, no event).
func (c *Cluster) MarkOSDOut(id int) {
	if !c.osds[id].up {
		return
	}
	c.osds[id].up = false
	c.cmap.MarkOut(id)
	for _, pl := range c.poolList {
		pl.osdOut(id)
	}
	c.emitEvent("osd-out", fmt.Sprintf("osd%d (host %s)", id, c.osds[id].Node.Name))
}

// MarkOSDIn restores a failed OSD to placement. Positions whose objects
// diverged while the OSD was out come back `backfilling`: still served by
// reconstruction around them until a Pool.Backfill pass re-syncs the
// divergent objects and flips them clean, so stale shard contents are never
// read. Restoring an OSD that is already up is a no-op.
func (c *Cluster) MarkOSDIn(id int) {
	if c.osds[id].up {
		return
	}
	c.osds[id].up = true
	c.cmap.MarkIn(id)
	for _, pl := range c.poolList {
		pl.osdIn(id)
	}
	c.emitEvent("osd-in", fmt.Sprintf("osd%d (host %s)", id, c.osds[id].Node.Name))
}

// CreatePool creates a pool with the given fault-tolerance profile and maps
// its placement groups through CRUSH.
func (c *Cluster) CreatePool(name string, profile Profile) (*Pool, error) {
	if _, dup := c.pools[name]; dup {
		return nil, fmt.Errorf("core: pool %q exists", name)
	}
	if err := profile.validate(); err != nil {
		return nil, err
	}
	if profile.Width() > len(c.osds) {
		return nil, fmt.Errorf("core: profile %v needs %d OSDs, cluster has %d",
			profile, profile.Width(), len(c.osds))
	}
	pl, err := newPool(c, c.poolSeq, name, profile)
	if err != nil {
		return nil, err
	}
	c.poolSeq++
	c.pools[name] = pl
	c.poolList = append(c.poolList, pl)
	return pl, nil
}

// Pool returns a pool by name (nil if missing).
func (c *Cluster) Pool(name string) *Pool { return c.pools[name] }

// Pools returns every pool in creation order (a deterministic iteration
// order for background tasks walking all pools).
func (c *Cluster) Pools() []*Pool { return append([]*Pool(nil), c.poolList...) }

// --- CPU/network cost helpers shared by the op paths ---

// perKB scales a per-KiB cost to n bytes.
func perKB(n int64, d time.Duration) time.Duration {
	return time.Duration(n) * d / 1024
}

// message appends one message's hold chain: the send cost on the sender's
// CPU, the transfer over net, the receive cost on the receiver's CPU.
func (c *Cluster) message(ss []sim.Stage, net *netsim.Network, from, to *Node, payload int64) []sim.Stage {
	cm := &c.cfg.Cost
	copying := perKB(payload, cm.MsgCopyPerKB)
	ss = from.CPU.burst(ss, cm.MsgSendUser+copying, cm.MsgSendKernel)
	if net == c.private {
		ss = net.Message(ss, from.priv, to.priv, payload)
	} else {
		ss = net.Message(ss, from.pub, to.pub, payload)
	}
	return to.CPU.burst(ss, cm.MsgRecvUser+copying, cm.MsgRecvKernel)
}

// send moves payload bytes between two nodes over net as one hold: the send
// cost on the sender's CPU, the transfer, the receive cost on the receiver's.
func (c *Cluster) send(p *sim.Proc, net *netsim.Network, from, to *Node, payload int64) {
	var b [5]sim.Stage
	p.Hold(c.message(b[:0], net, from, to, payload)...)
}

// pushShard writes [off, off+n) of obj on the OSD `to` on behalf of `from` —
// the primary, or the copy source of a replica repair — as a hold chain that
// ends once the write is durable and acknowledged: straight into the local
// store when the two are the same OSD, otherwise payload out over the
// private network, dispatch and transaction prep at the receiver, its store
// write, and a zero-byte commit ack back, then the stages then. payload may
// be nil (size-only mode). It appends the first stages to ss for p to run
// (Then, or Hold in push); t runs the rest.
func (c *Cluster) pushShard(ss []sim.Stage, t *transfer, p *sim.Proc, from, to *OSD, obj string, off int64, payload []byte, n int64, then ...sim.Stage) []sim.Stage {
	to.Store.WriteOp(&t.op, obj, off, payload, n)
	cm := &c.cfg.Cost
	return t.begin(ss, p, from, to, n, 0, cm.DispatchUser+cm.TxnPrepUser, then)
}

// pullShard reads [off, off+n) of obj from the OSD `from` into the OSD `to`
// as pushShard writes: a local store read when the two are the same OSD,
// otherwise a zero-byte request out, dispatch and the store read at the
// holder, and the bytes back over the private network; t's store op has
// them. Together with pushShard this is the only place a shard transfer is
// priced; every op and repair path moves data through them.
func (c *Cluster) pullShard(ss []sim.Stage, t *transfer, p *sim.Proc, to, from *OSD, obj string, off, n int64, then ...sim.Stage) []sim.Stage {
	from.Store.ReadOp(&t.op, obj, off, n)
	return t.begin(ss, p, to, from, 0, n, c.cfg.Cost.DispatchUser, then)
}

// push runs pushShard as one blocking call.
func (c *Cluster) push(sp *sim.Proc, from, to *OSD, obj string, off int64, payload []byte, n int64) {
	t, b := c.transfer(), [8]sim.Stage{}
	sp.Hold(c.pushShard(b[:0], t, sp, from, to, obj, off, payload, n)...)
	c.xfers = append(c.xfers, t)
}

// pull runs pullShard as one blocking call and returns the bytes.
func (c *Cluster) pull(sp *sim.Proc, to, from *OSD, obj string, off, n int64) []byte {
	t, b := c.transfer(), [8]sim.Stage{}
	sp.Hold(c.pullShard(b[:0], t, sp, to, from, obj, off, n)...)
	c.xfers = append(c.xfers, t)
	return t.op.Data()
}

// A transfer is the state of one pushShard or pullShard chain, pooled per
// Cluster or owned per slot by shardRace and shardPush.
type transfer struct {
	c       *Cluster
	p       *sim.Proc
	op      store.Op
	tail    []sim.Stage // the leg back and the caller's stages, on tailBuf
	tailBuf [8]sim.Stage
	stepFn  func([]sim.Stage) // step, bound once
}

// transfer takes a pooled transfer, or makes one.
func (c *Cluster) transfer() *transfer {
	if t := pop(&c.xfers); t != nil {
		return t
	}
	t := &transfer{c: c}
	t.stepFn = t.step
	return t
}

// begin appends the leg from home to the holder (a message of out bytes,
// then dispatch there; at home, the store submit alone) and the start of
// the store op, and keeps the leg back (reply bytes) and then for its end.
func (t *transfer) begin(ss []sim.Stage, p *sim.Proc, home, holder *OSD, out, reply int64, user time.Duration, then []sim.Stage) []sim.Stage {
	cm := &t.c.cfg.Cost
	t.p, t.tail = p, t.tailBuf[:0]
	if home == holder {
		ss = home.Node.CPU.burst(ss, 0, cm.StoreSubmitKern)
	} else {
		ss = t.c.message(ss, t.c.private, home.Node, holder.Node, out)
		ss = holder.Node.CPU.burst(ss, user, cm.StoreSubmitKern)
		t.tail = t.c.message(t.tail, t.c.private, holder.Node, home.Node, reply)
	}
	t.tail = append(t.tail, then...)
	return append(ss, sim.Stage{Done: t.stepFn})
}

// step starts the store op's next device step at the instant the last one
// (or the leg to the holder) ended, or, once the op is done, the tail.
func (t *transfer) step([]sim.Stage) {
	if st, ok := t.op.Next(); ok {
		st.Done = t.stepFn
		t.p.Then(st)
	} else {
		t.p.Then(t.tail...)
	}
}

// shardPush is one pooled write fan-out: a chain-only process per live
// shard position pushes its payload (pushShard), charges the commit at the
// primary (under the PG lock when relock is set) and counts down commits.
type shardPush struct {
	c       *Cluster
	pg      *PG
	prim    *OSD
	obj     string
	off, n  int64
	relock  bool
	payload [][]byte          // by shard position; nil in size-only mode
	osds    []*OSD            // by shard position
	bodies  []func(*sim.Proc) // bodies[pos] starts position pos's chain, bound once
	xfers   []*transfer       // xfers[pos] carries it
	commits sim.Latch
	doneFn  func([]sim.Stage) // committed, bound once
}

// getPush takes a fan-out of [off, off+n) of obj, every payload nil.
func (c *Cluster) getPush(pg *PG, prim *OSD, obj string, off, n int64, relock bool) *shardPush {
	f := pop(&c.pushes)
	if f == nil {
		f = &shardPush{c: c}
		f.doneFn = f.committed
	}
	w := len(pg.shards)
	f.payload, f.osds = slices.Grow(f.payload[:0], w)[:w], slices.Grow(f.osds[:0], w)[:w]
	f.pg, f.prim, f.obj, f.off, f.n, f.relock = pg, prim, obj, off, n, relock
	return f
}

// start spawns a process per live position, in position order, named
// tag/obj.pos (tag/obj when byPos is false).
func (f *shardPush) start(tag string, byPos bool) {
	f.commits = *sim.NewLatch(f.c.e, f.pg.liveShards())
	for pos, id := range f.pg.shards {
		for len(f.bodies) <= pos {
			j := len(f.bodies)
			f.xfers = append(f.xfers, f.c.transfer())
			f.bodies = append(f.bodies, func(sp *sim.Proc) {
				var b, cb [8]sim.Stage
				commit := cb[:0]
				if f.relock {
					commit = append(commit, sim.Stage{Res: f.pg.lock, N: 1, D: sim.Keep})
				}
				commit = append(f.prim.Node.CPU.burst(commit, f.c.cfg.Cost.CommitUser, 0), sim.Stage{Done: f.doneFn})
				sp.Then(f.c.pushShard(b[:0], f.xfers[j], sp, f.prim, f.osds[j], f.obj, f.off, f.payload[j], f.n, commit...)...)
			})
		}
		if !f.pg.live(pos) {
			continue
		}
		f.osds[pos] = f.c.osds[id]
		nameID := -1
		if byPos {
			nameID = pos
		}
		f.c.e.GoChain(tag, f.obj, nameID, f.bodies[pos])
	}
}

// committed ends a position's chain: the PG lock back, one commit counted.
func (f *shardPush) committed([]sim.Stage) {
	if f.relock {
		f.pg.lock.Release(1)
	}
	f.commits.Done()
}

// wait blocks until every position has committed, then repools f: Done is
// each process's last touch of it.
func (f *shardPush) wait(p *sim.Proc) {
	f.commits.Wait(p)
	clear(f.payload)
	f.c.pushes = append(f.c.pushes, f)
}

// pop takes the last of a free list's items, or nil.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	t := (*free)[n-1]
	*free = (*free)[:n-1]
	return t
}

// clientDispatch charges the serialized librbd image-queue section plus
// client library CPU for one block-layer op.
func (c *Cluster) clientDispatch(p *sim.Proc) {
	cm := &c.cfg.Cost
	b := [2]sim.Stage{{Res: c.imageQueue, N: 1, D: cm.ClientDispatchSerial}}
	p.Hold(c.client.CPU.burst(b[:1], cm.ClientOpUser, 0)...)
}
