package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ecarray/internal/service"
)

// numClients is the load: two client goroutines, each with its own
// keep-alive connection, on a two-core box. Key i belongs to client
// i % numClients, so every key has one writer and "the last acknowledged
// value" is unambiguous.
const numClients = 2

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

func (k opKind) String() string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// op is one request of a generated schedule.
type op struct {
	kind opKind
	key  int
}

// keyset is a bounded set of same-size objects and what each should hold.
// Payloads are windows into one pool of seeded random (incompressible)
// bytes; the window offset is the per-op stamp, so a PUT sends pool bytes
// without copying and a GET is checked byte for byte against the window of
// the last acknowledged PUT.
type keyset struct {
	prefix string
	size   int
	pool   []byte
	seed   uint64
	seq    []uint32 // PUTs issued per key
	last   []int    // pool offset of the last acknowledged PUT per key; -1 = never written
}

// poolWindows is how many distinct offsets a payload window can start at.
const poolWindows = 8 << 20

func newKeyset(prefix string, keys, size int, seed int64) *keyset {
	ks := &keyset{
		prefix: prefix, size: size, seed: uint64(seed),
		pool: make([]byte, poolWindows+size),
		seq:  make([]uint32, keys),
		last: make([]int, keys),
	}
	rand.New(rand.NewSource(seed)).Read(ks.pool) // math/rand Read never fails
	for i := range ks.last {
		ks.last[i] = -1
	}
	return ks
}

func (ks *keyset) name(key int) string { return fmt.Sprintf("%s/k%05d", ks.prefix, key) }

// nextPayload is the bytes of key's next PUT and the offset that names them.
func (ks *keyset) nextPayload(key int) ([]byte, int) {
	ks.seq[key]++
	// splitmix64 of (seed, key, seq): distinct ops get unrelated windows.
	x := ks.seed ^ uint64(key)<<32 ^ uint64(ks.seq[key])
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	off := int(x % poolWindows)
	return ks.pool[off : off+ks.size], off
}

func (ks *keyset) expected(key int) []byte {
	off := ks.last[key]
	return ks.pool[off : off+ks.size]
}

// sample is the outcome of one op.
type sample struct {
	kind     opKind
	ms       float64 // latency; the caller decides from when
	bytes    int
	failed   bool
	degraded bool
}

// client is one closed connection's worth of load.
type client struct {
	id  int
	gc  *service.GateClient
	ks  *keyset
	tr  *tracer // nil on untraced runs
	n   int     // ops issued, for request IDs
	log func(format string, args ...any)
}

func newClients(gateURL string, ks *keyset, tr *tracer, logf func(string, ...any)) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		gc := service.NewGateClient(gateURL)
		gc.SetRetries(0) // a 429 or 503 is a failure, not something to hide by retrying
		cs[i] = &client{id: i, gc: gc, ks: ks, tr: tr, log: logf}
	}
	return cs
}

// do runs one op and checks its result. It does not time it.
func (c *client) do(ctx context.Context, o op) sample {
	c.n++
	s := sample{kind: o.kind, bytes: c.ks.size}
	if c.tr != nil {
		req := fmt.Sprintf("c%d-%d", c.id, c.n)
		ctx = service.WithRequestID(ctx, req)
		sp := c.tr.begin(req, spanClient, o.kind.String(), true)
		defer c.tr.end(sp)
	}
	name := c.ks.name(o.key)
	switch o.kind {
	case opPut:
		data, off := c.ks.nextPayload(o.key)
		if _, err := c.gc.PutObject(ctx, name, data); err != nil {
			c.log("PUT %s: %v", name, err)
			s.failed = true
			return s
		}
		c.ks.last[o.key] = off
	case opGet:
		data, degraded, err := c.gc.GetObject(ctx, name)
		if err != nil {
			c.log("GET %s: %v", name, err)
			s.failed = true
			return s
		}
		s.degraded = degraded
		if !bytes.Equal(data, c.ks.expected(o.key)) {
			c.log("GET %s: %d bytes differ from the last acknowledged PUT", name, len(data))
			s.failed = true
		}
	}
	return s
}

// phase is what one stretch of load produced.
type phase struct {
	wall    time.Duration
	samples []sample
	// Open loop only.
	lateMs     []float64 // how long after its due time each op started
	backlogMax int
	scheduled  time.Duration // when the last op was due
}

func (p phase) count(kind opKind) (n int, bytes int64) {
	for _, s := range p.samples {
		if s.kind == kind && !s.failed {
			n++
			bytes += int64(s.bytes)
		}
	}
	return n, bytes
}

// runClosed gives each client its list of ops; a client sends its next op
// when the previous one completes. Latency runs from send to completion.
func runClosed(ctx context.Context, clients []*client, ops [][]op) phase {
	per := make([][]sample, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for _, o := range ops[i] {
				t := time.Now()
				s := c.do(ctx, o)
				s.ms = float64(time.Since(t)) / 1e6
				per[i] = append(per[i], s)
			}
		}(i, c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// clock is time since a phase began; the open-loop scheduler is written
// against it so a test can drive it with a fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct {
	t0  time.Time
	ctx context.Context
}

func (w wallClock) Now() time.Duration { return time.Since(w.t0) }

func (w wallClock) SleepUntil(t time.Duration) {
	d := t - w.Now()
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-w.ctx.Done():
	}
}

// runSchedule is one connection's share of an open loop: op i is sent at
// due[i], or as soon after as the connection is free, and its latency is
// counted from due[i] — so a stalled op charges its delay to every op
// queued behind it. late[i] is how long op i waited past its due time
// before it was sent; backlogMax is the most ops that were due and unsent
// at any send.
func runSchedule(clk clock, due []time.Duration, exec func(i int)) (latency, late []time.Duration, backlogMax int) {
	latency = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	queued := 0 // index one past the last op due by now
	for i := range due {
		clk.SleepUntil(due[i])
		start := clk.Now()
		for queued < len(due) && due[queued] <= start {
			queued++
		}
		if b := queued - i; b > backlogMax {
			backlogMax = b
		}
		late[i] = max(start-due[i], 0)
		exec(i)
		latency[i] = clk.Now() - due[i]
	}
	return latency, late, backlogMax
}

// runOpen sends ops on a fixed schedule regardless of how fast answers
// come back. Each op goes to the connection that owns its key.
func runOpen(ctx context.Context, clients []*client, ops []op, due []time.Duration) phase {
	type share struct {
		ops []op
		due []time.Duration
	}
	shares := make([]share, len(clients))
	for i, o := range ops {
		s := &shares[o.key%len(clients)]
		s.ops = append(s.ops, o)
		s.due = append(s.due, due[i])
	}
	per := make([]phase, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			sh := shares[i]
			samples := make([]sample, len(sh.ops))
			lat, late, backlog := runSchedule(wallClock{start, ctx}, sh.due, func(j int) {
				samples[j] = c.do(ctx, sh.ops[j])
			})
			for j := range samples {
				samples[j].ms = float64(lat[j]) / 1e6
				per[i].lateMs = append(per[i].lateMs, float64(late[j])/1e6)
			}
			per[i].samples = samples
			per[i].backlogMax = backlog
		}(i, c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), scheduled: due[len(due)-1]}
	for _, q := range per {
		p.samples = append(p.samples, q.samples...)
		p.lateMs = append(p.lateMs, q.lateMs...)
		p.backlogMax = max(p.backlogMax, q.backlogMax)
	}
	return p
}

// ringOps walks each client's keys in a seeded order, round and round: n
// ops of one kind per client, overwriting or re-reading a bounded set.
func ringOps(rng *rand.Rand, keys, n int, kind opKind) [][]op {
	out := make([][]op, numClients)
	for c := range out {
		var mine []int
		for k := c; k < keys; k += numClients {
			mine = append(mine, k)
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		for i := 0; i < n; i++ {
			out[c] = append(out[c], op{kind, mine[i%len(mine)]})
		}
	}
	return out
}

// mixedOps is n ops on uniformly drawn keys, of which exactly the share
// getFrac (rounded) are GETs, in a seeded order. The mix is exact, not
// drawn per op, so every round carries the same number of PUTs.
func mixedOps(rng *rand.Rand, keys, n int, getFrac float64) []op {
	gets := int(math.Round(float64(n) * getFrac))
	out := make([]op, n)
	for i := range out {
		kind := opPut
		if i < gets {
			kind = opGet
		}
		out[i] = op{kind, rng.Intn(keys)}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// byClient splits a schedule among the connections that own its keys.
func byClient(ops []op) [][]op {
	out := make([][]op, numClients)
	for _, o := range ops {
		out[o.key%numClients] = append(out[o.key%numClients], o)
	}
	return out
}

// poissonDue draws n arrival times of a Poisson process of the given rate.
func poissonDue(rng *rand.Rand, n int, perSecond float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / perSecond
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
