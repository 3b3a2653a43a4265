// Package netsim simulates the cluster networks of the reproduced paper's
// testbed: a 10 Gb "public" network between client and storage nodes and a
// separate 10 Gb "private" (cluster) network between storage nodes (§II-A,
// Fig 4). The private network carries replication copies, erasure-coding
// chunks, RS-concatenation pulls and OSD heartbeats — the traffic Figs 16-17
// quantify.
//
// Each node has one full-duplex NIC per network. A message serializes on the
// sender's TX queue at link bandwidth, propagates with fixed latency, then
// serializes on the receiver's RX queue, so both egress incast and ingress
// incast (a primary OSD pulling k-1 chunks at once) contend realistically.
// Messages between co-located endpoints take a loopback fast path and are
// not counted as network traffic, matching the paper's observation that
// intra-node chunk transfers never reach the wire.
//
// Nodes are addressed by the index AddNode returns: a Message costs no name
// lookup. Names serve setup, SetNodeLatencyMultiplier and Send.
package netsim

import (
	"fmt"
	"time"

	"ecarray/internal/sim"
	"ecarray/internal/stats"
)

// Config describes one network.
type Config struct {
	Name string
	// Bandwidth is the per-NIC, per-direction link rate in bytes/second.
	Bandwidth int64
	// Latency is the one-way propagation + switching delay.
	Latency time.Duration
	// MsgOverhead is the per-message framing overhead in bytes (headers,
	// acks) added to every transfer.
	MsgOverhead int64
	// LoopbackLatency is the delivery delay for same-node messages.
	LoopbackLatency time.Duration
}

// TenGbE returns a 10 Gb Ethernet configuration like the paper's networks.
func TenGbE(name string) Config {
	return Config{
		Name:            name,
		Bandwidth:       1250 << 20, // 10 Gb/s ≈ 1250 MiB/s
		Latency:         30 * time.Microsecond,
		MsgOverhead:     256,
		LoopbackLatency: 8 * time.Microsecond,
	}
}

type nic struct {
	tx *sim.Resource
	rx *sim.Resource
	// latMul stretches propagation latency for messages touching this
	// node (gray failure: a sick NIC, cable or switch port). 0 and 1 mean
	// healthy; the link rate is unchanged.
	latMul float64
}

// Network is a full-duplex star network (every node connected through a
// non-blocking switch, bounded by per-NIC bandwidth).
type Network struct {
	cfg   Config
	e     *sim.Engine
	nodes map[string]int // index into nics
	nics  []nic

	bytes     stats.Counter // payload+overhead bytes crossing the wire
	msgs      stats.Counter
	loopBytes stats.Counter // same-node bytes (not network traffic)

	// Hold-chain hooks, bound once: propagate, delivered, looped.
	propagateFn, deliveredFn, loopedFn func([]sim.Stage)
}

// New creates a network with no nodes.
func New(e *sim.Engine, cfg Config) *Network {
	if cfg.Bandwidth <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	if cfg.Latency < 0 || cfg.MsgOverhead < 0 {
		panic("netsim: negative latency or overhead")
	}
	n := &Network{cfg: cfg, e: e, nodes: map[string]int{}}
	n.propagateFn, n.deliveredFn, n.loopedFn = n.propagate, n.delivered, n.looped
	return n
}

// AddNode attaches a node NIC and returns its index (0, 1, ... in order of
// addition), the address Message takes. Adding a name twice panics.
func (n *Network) AddNode(name string) int {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	i := len(n.nics)
	n.nodes[name] = i
	n.nics = append(n.nics, nic{
		tx: sim.NewResource(n.e, n.cfg.Name+"/"+name+"/tx", 1),
		rx: sim.NewResource(n.e, n.cfg.Name+"/"+name+"/rx", 1),
	})
	return i
}

// Send runs Message between two named nodes as one hold, blocking the
// calling process until the message is fully delivered.
func (n *Network) Send(p *sim.Proc, from, to string, payload int64) {
	var b [3]sim.Stage
	p.Hold(n.Message(b[:0], n.index(from, "sender"), n.index(to, "receiver"), payload)...)
}

// Message appends the stages of a transfer from node index si to node
// index di to a hold chain, so a caller can run a send and the CPU work
// around it as one Proc.Hold: serialization on the sender's TX queue,
// propagation, serialization on the receiver's RX queue, then the traffic
// accounting — or, between co-located endpoints, the loopback count and
// delay. An index out of range panics.
func (n *Network) Message(ss []sim.Stage, si, di int, payload int64) []sim.Stage {
	if payload < 0 {
		panic("netsim: negative payload")
	}
	tx, rx := n.nics[si].tx, n.nics[di].rx // an index out of range panics, loopback too
	if si == di {
		return append(ss, sim.Stage{Done: n.loopedFn, Arg: payload}, sim.Stage{D: n.cfg.LoopbackLatency})
	}
	wire := payload + n.cfg.MsgOverhead
	ser := time.Duration(wire * int64(time.Second) / n.cfg.Bandwidth)
	return append(ss,
		sim.Stage{Res: tx, N: 1, D: ser, Done: n.propagateFn, Arg: int64(si)<<32 | int64(di)},
		sim.Stage{D: n.cfg.Latency},
		sim.Stage{Res: rx, N: 1, D: ser, Done: n.deliveredFn, Arg: wire})
}

// index returns the node's position in nics; role names it in the panic.
func (n *Network) index(name, role string) int {
	i, ok := n.nodes[name]
	if !ok {
		panic(fmt.Sprintf("netsim %s: unknown %s %q", n.cfg.Name, role, name))
	}
	return i
}

// propagate stretches the propagation stage after the TX stage (Arg holds
// the sender's and receiver's nics index) by the larger of the two nodes'
// multipliers in force as the message leaves the sender.
func (n *Network) propagate(rest []sim.Stage) {
	m := max(n.nics[rest[0].Arg>>32].latMul, n.nics[rest[0].Arg&(1<<32-1)].latMul)
	if m > 0 && m != 1 {
		rest[1].D = time.Duration(float64(n.cfg.Latency) * m)
	}
}

// delivered counts a message of Arg wire bytes off the receiver's RX queue.
func (n *Network) delivered(rest []sim.Stage) {
	n.bytes.Add(rest[0].Arg)
	n.msgs.Inc()
}

// looped counts Arg same-node bytes.
func (n *Network) looped(rest []sim.Stage) { n.loopBytes.Add(rest[0].Arg) }

// SetNodeLatencyMultiplier stretches (or, with 0 or 1, restores) the
// propagation latency of every wire message to or from the node — the
// network face of a gray-failed host. A message between two degraded nodes
// pays the larger multiplier once. Serialization time is unchanged: the
// link still moves bytes at full rate, it just answers late.
func (n *Network) SetNodeLatencyMultiplier(name string, m float64) {
	i := n.index(name, "node")
	if m < 0 {
		panic(fmt.Sprintf("netsim %s: negative latency multiplier %g", n.cfg.Name, m))
	}
	n.nics[i].latMul = m
}

// Bytes returns total bytes delivered over the wire (payload + overhead),
// excluding loopback.
func (n *Network) Bytes() int64 { return n.bytes.Value() }

// Messages returns total messages delivered over the wire.
func (n *Network) Messages() int64 { return n.msgs.Value() }

// LoopbackBytes returns total same-node bytes (never on the wire).
func (n *Network) LoopbackBytes() int64 { return n.loopBytes.Value() }

// ResetStats zeroes the byte/message counters.
func (n *Network) ResetStats() {
	n.bytes.Reset()
	n.msgs.Reset()
	n.loopBytes.Reset()
}
