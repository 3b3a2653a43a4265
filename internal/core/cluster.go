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
// pullShard in cluster.go. The foreground paths (ec.go, replicated.go,
// tailfetch.go) and the repair passes (recovery.go, backfill.go, scrub.go)
// only decide which shards move.
package core

import (
	"fmt"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/gf"
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
	Name string
	CPU  *CPU
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
	if cfg.CodecKernel != "" {
		// The kernel tables are process-wide; applying the knob here means
		// every codec the cluster builds (pool encode, recovery rebuild,
		// calibration) runs the requested tier. All tiers are
		// byte-identical, so this never changes simulated metrics.
		k, _ := gf.ParseKernel(cfg.CodecKernel)
		gf.SetKernel(k)
	}
	c := &Cluster{
		cfg:        cfg,
		e:          e,
		pools:      map[string]*Pool{},
		imageQueue: sim.NewResource(e, "client/librbd", 1),
	}
	c.public = netsim.New(e, cfg.Public)
	c.private = netsim.New(e, cfg.Private)

	c.client = &Node{Name: ClientNode, CPU: newCPU(e, ClientNode, cfg.ClientCores, &c.cfg.Cost)}
	c.public.AddNode(ClientNode)

	for n := 0; n < cfg.StorageNodes; n++ {
		name := fmt.Sprintf("node%d", n)
		node := &Node{Name: name, CPU: newCPU(e, name, cfg.CoresPerStorageNode, &c.cfg.Cost)}
		c.nodes = append(c.nodes, node)
		c.public.AddNode(name)
		c.private.AddNode(name)
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

// Client returns the client node.
func (c *Cluster) Client() *Node { return c.client }

// PublicNetwork returns the client-facing network.
func (c *Cluster) PublicNetwork() *netsim.Network { return c.public }

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
					c.private.Send(p, osd.Node.Name, peer.Node.Name, cm.HeartbeatBytes)
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

// execRecv charges message-reception cost on a node for a payload size.
func (c *Cluster) execRecv(p *sim.Proc, n *Node, payload int64) {
	cm := &c.cfg.Cost
	n.CPU.Exec(p, cm.MsgRecvUser+perKB(payload, cm.MsgCopyPerKB), cm.MsgRecvKernel)
}

// execSend charges message-transmission cost on a node for a payload size.
func (c *Cluster) execSend(p *sim.Proc, n *Node, payload int64) {
	cm := &c.cfg.Cost
	n.CPU.Exec(p, cm.MsgSendUser+perKB(payload, cm.MsgCopyPerKB), cm.MsgSendKernel)
}

// sendPrivate moves payload bytes between storage nodes, charging CPU at
// both ends.
func (c *Cluster) sendPrivate(p *sim.Proc, from, to *Node, payload int64) {
	c.execSend(p, from, payload)
	c.private.Send(p, from.Name, to.Name, payload)
	c.execRecv(p, to, payload)
}

// pushShard writes [off, off+n) of obj on the OSD `to` on behalf of `from` —
// the primary, or the copy source of a replica repair — and returns once the
// write is durable and acknowledged: straight into the local store when the
// two are the same OSD, otherwise payload out over the private network,
// dispatch and transaction prep at the receiver, its store write, and a
// zero-byte commit ack back. payload may be nil (size-only mode).
func (c *Cluster) pushShard(sp *sim.Proc, from, to *OSD, obj string, off int64, payload []byte, n int64) {
	cm := &c.cfg.Cost
	if to == from {
		from.Node.CPU.Exec(sp, 0, cm.StoreSubmitKern)
		from.Store.Write(sp, obj, off, payload, n)
		return
	}
	c.sendPrivate(sp, from.Node, to.Node, n)
	to.Node.CPU.Exec(sp, cm.DispatchUser+cm.TxnPrepUser, cm.StoreSubmitKern)
	to.Store.Write(sp, obj, off, payload, n)
	c.sendPrivate(sp, to.Node, from.Node, 0)
}

// pullShard reads [off, off+n) of obj from the OSD `from` into the OSD `to`:
// a local store read when the two are the same OSD, otherwise a zero-byte
// request out, dispatch and the store read at the holder, and the bytes back
// over the private network. Together with pushShard this is the only place a
// shard transfer is priced; every op and repair path moves data through them.
func (c *Cluster) pullShard(sp *sim.Proc, to, from *OSD, obj string, off, n int64) []byte {
	cm := &c.cfg.Cost
	if from == to {
		to.Node.CPU.Exec(sp, 0, cm.StoreSubmitKern)
		return to.Store.Read(sp, obj, off, n)
	}
	c.sendPrivate(sp, to.Node, from.Node, 0)
	from.Node.CPU.Exec(sp, cm.DispatchUser, cm.StoreSubmitKern)
	data := from.Store.Read(sp, obj, off, n)
	c.sendPrivate(sp, from.Node, to.Node, n)
	return data
}

// sendPublicToPrimary moves payload from the client to a storage node.
func (c *Cluster) sendPublicToPrimary(p *sim.Proc, to *Node, payload int64) {
	cm := &c.cfg.Cost
	c.client.CPU.Exec(p, cm.MsgSendUser+perKB(payload, cm.MsgCopyPerKB), cm.MsgSendKernel)
	c.public.Send(p, ClientNode, to.Name, payload)
	c.execRecv(p, to, payload)
}

// sendPublicToClient moves payload from a storage node to the client.
func (c *Cluster) sendPublicToClient(p *sim.Proc, from *Node, payload int64) {
	cm := &c.cfg.Cost
	c.execSend(p, from, payload)
	c.public.Send(p, from.Name, ClientNode, payload)
	c.client.CPU.Exec(p, cm.MsgRecvUser+perKB(payload, cm.MsgCopyPerKB), cm.MsgRecvKernel)
}

// clientDispatch charges the serialized librbd image-queue section plus
// client library CPU for one block-layer op.
func (c *Cluster) clientDispatch(p *sim.Proc) {
	cm := &c.cfg.Cost
	c.imageQueue.Acquire(p, 1)
	p.Sleep(cm.ClientDispatchSerial)
	c.imageQueue.Release(1)
	c.client.CPU.Exec(p, cm.ClientOpUser, 0)
}
