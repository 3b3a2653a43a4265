package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/gf"
	"ecarray/internal/matrix"
	"ecarray/internal/netsim"
	"ecarray/internal/qos"
	"ecarray/internal/rs"
	"ecarray/internal/service"
	"ecarray/internal/sim"
	"ecarray/internal/ssd"
)

// timeCall times fn for about budget and returns the median nanoseconds
// per call over at least five batches, and how many calls that rests on.
// The batch doubles until one batch is long enough for the clock.
func timeCall(budget time.Duration, fn func()) (nsPerCall float64, calls int) {
	fn() // first call pays for lazy set-up
	var per []float64
	batch := 1
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t0)
		if d < 200*time.Microsecond && batch < 1<<24 {
			batch *= 2
			per, calls = per[:0], 0
			continue
		}
		per = append(per, float64(d)/float64(batch))
		calls += batch
	}
	return median(per), calls
}

// timeRun times run(n), which does n items in one go (an engine that
// dispatches n events), three times and returns the median ns per item.
func timeRun(n int, run func(n int)) (nsPerItem float64, items int) {
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		run(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), 3 * n
}

// must stops a replay whose fixture cannot be built: the inputs are
// constants, so an error here is a bug in the harness or the layer.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ecload replay: %v", err))
	}
}

// shardLenFor is the per-shard stream length of an object: full stripes of
// k chunks plus one padded last stripe (what the gateway stores per OSD).
func shardLenFor(size int) int {
	stripe := chunkSize * dataK
	return (size + stripe - 1) / stripe * chunkSize
}

// stageReplay times each layer's public call alone, single-threaded, at the
// workload's own object size: the pieces that handler self-time and shard
// fan-out are made of. osdURL is a live ecstored; dir holds the WAL of the
// one fixture that needs a disk.
func stageReplay(ctx context.Context, m metricSet, size int, osdURL, dir string, budget time.Duration) error {
	obj := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(obj)
	shard := make([]byte, shardLenFor(size)) // small objects pad up to one chunk
	copy(shard, obj)
	set := func(name string, ns float64, calls int, per float64) { m.set(name, ns/per, calls) }

	adm := qos.NewMaxInflight(256)
	ns, n := timeCall(budget, func() {
		adm.Admit(qos.Request{})
		adm.Release(qos.Request{})
	})
	set("qos.admit_us", ns, n, 1e3)

	cmap := crush.Uniform(numOSDs, 1)
	placer, err := service.NewPlacer(cmap, dataK+parityM)
	must(err)
	i := 0
	ns, n = timeCall(budget, func() {
		i++
		_, err = placer.Place(fmt.Sprintf("replay/k%05d", i%1000))
	})
	must(err)
	set("service.place_us", ns, n, 1e3)
	ns, n = timeCall(budget, func() {
		i++
		_, err = cmap.Select(uint64(i)*0x9e3779b97f4a7c15, dataK+parityM)
	})
	must(err)
	set("crush.select_ns", ns, n, 1)

	code, err := rs.New(dataK, parityM)
	must(err)
	bufs := make([]bytes.Buffer, dataK+parityM)
	writers := make([]io.Writer, len(bufs))
	for j := range bufs {
		bufs[j].Grow(len(shard))
		writers[j] = &bufs[j]
	}
	ns, n = timeCall(budget, func() {
		for j := range bufs {
			bufs[j].Reset()
		}
		_, err = code.StreamEncode(bytes.NewReader(obj), writers, chunkSize)
	})
	must(err)
	set("rs.stream_encode_ms", ns, n, 1e6)

	var out bytes.Buffer
	out.Grow(size)
	decode := func(withhold int) func() {
		return func() {
			readers := make([]io.Reader, len(bufs))
			for j := range bufs {
				if j != withhold {
					readers[j] = bytes.NewReader(bufs[j].Bytes())
				}
			}
			out.Reset()
			err = code.StreamDecode(&out, readers, int64(size), chunkSize)
		}
	}
	ns, n = timeCall(budget, decode(-1))
	must(err)
	set("rs.stream_decode_ms", ns, n, 1e6)
	ns, n = timeCall(budget, decode(0))
	must(err)
	if !bytes.Equal(out.Bytes(), obj) {
		panic("ecload replay: degraded StreamDecode returned different bytes")
	}
	set("rs.stream_decode_degraded_ms", ns, n, 1e6)

	// WAL append = PutObject over memory stores with the WAL on, minus the
	// same with it off.
	putMs := func(metaDir string) (float64, int, error) {
		cfg := service.DefaultGatewayConfig()
		cfg.K, cfg.M, cfg.ChunkSize, cfg.MetaDir = dataK, parityM, chunkSize, metaDir
		stores := make([]service.ShardStore, numOSDs)
		for j := range stores {
			stores[j] = service.NewMemStore(j)
		}
		gw, err := service.NewGateway(cfg, stores, placer)
		if err != nil {
			return 0, 0, err
		}
		defer gw.Close()
		k := 0
		ns, n := timeCall(budget, func() {
			k++
			_, err = gw.PutObject(ctx, fmt.Sprintf("replay/k%03d", k%64), obj)
		})
		return ns / 1e6, n, err
	}
	withWAL, n, err := putMs(filepath.Join(dir, "replay-meta"))
	if err != nil {
		return fmt.Errorf("replay PutObject with WAL: %w", err)
	}
	without, _, err := putMs("")
	if err != nil {
		return fmt.Errorf("replay PutObject without WAL: %w", err)
	}
	m.set("service.wal_append_ms", withWAL-without, n)

	mem := service.NewMemStore(0)
	ns, n = timeCall(budget, func() { err = mem.Put(ctx, "replay", 0, shard) })
	must(err)
	set("service.memstore_put_us", ns, n, 1e3)
	ns, n = timeCall(budget, func() { _, err = mem.Get(ctx, "replay", 0) })
	must(err)
	set("service.memstore_get_us", ns, n, 1e3)

	oc := service.NewOSDClient(0, osdURL)
	ns, n = timeCall(budget, func() { err = oc.Put(ctx, "replay", 0, shard) })
	if err != nil {
		return fmt.Errorf("replay shard PUT to %s: %w", osdURL, err)
	}
	set("service.osdclient_put_ms", ns, n, 1e6)
	ns, n = timeCall(budget, func() { _, err = oc.Get(ctx, "replay", 0) })
	if err != nil {
		return fmt.Errorf("replay shard GET from %s: %w", osdURL, err)
	}
	set("service.osdclient_get_ms", ns, n, 1e6)
	return oc.Delete(ctx, "replay", 0)
}

// floor measures the kernels and the simulation engine on their own: the
// fastest any layer above them could go. items scales the engine runs.
func floor(m metricSet, budget time.Duration, items int) {
	const shardBytes = 64 << 10
	rng := rand.New(rand.NewSource(2))
	shards := make([][]byte, dataK+parityM)
	for i := range shards {
		shards[i] = make([]byte, shardBytes)
		rng.Read(shards[i])
	}
	dataBytes := float64(dataK * shardBytes)

	coeffs := []byte{3, 7, 11, 19}
	dst := make([]byte, shardBytes)
	ns, n := timeCall(budget, func() { gf.MulSources(coeffs, shards[:dataK], dst) })
	m.set("gf.mul_sources_gbps", dataBytes/ns, n) // bytes per ns = GB/s

	code, err := rs.New(dataK, parityM)
	must(err)
	ns, n = timeCall(budget, func() { err = code.Encode(shards) })
	must(err)
	m.set("rs.encode_mbps", dataBytes/1e6/(ns/1e9), n)

	lost := make([][]byte, len(shards))
	ns, n = timeCall(budget, func() {
		copy(lost, shards)
		lost[0], lost[dataK] = nil, nil // one data and one parity shard
		err = code.Reconstruct(lost)
	})
	must(err)
	if !bytes.Equal(lost[0], shards[0]) {
		panic("ecload floor: Reconstruct returned different bytes")
	}
	m.set("rs.reconstruct_mbps", dataBytes/1e6/(ns/1e9), n)

	sub := matrix.Generator(dataK, parityM).SubMatrix([]int{1, 2, 3, 4}) // survivors after losing shard 0
	ns, n = timeCall(budget, func() { _, err = sub.Invert() })
	must(err)
	m.set("matrix.invert_us", ns/1e3, n)

	ns, n = timeRun(items, func(n int) {
		e := sim.NewEngine()
		left := n
		var fn func()
		fn = func() {
			if left--; left > 0 {
				e.Schedule(time.Nanosecond, fn)
			}
		}
		e.Schedule(time.Nanosecond, fn)
		e.Run()
	})
	m.set("sim.ns_per_event", ns, n)

	ns, n = timeRun(items, func(n int) {
		e := sim.NewEngine()
		e.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		e.Run()
	})
	m.set("sim.ns_per_switch", ns, n)

	ns, n = timeRun(items/4, func(n int) {
		const blocks = 256 // of 1 MiB
		e := sim.NewEngine()
		d, err := ssd.New(e, "d0", ssd.DefaultConfig(blocks<<20))
		must(err)
		r := sim.NewRand(4)
		e.Go("writer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				d.Write(p, r.Int63n(blocks*256)*4096, nil, 4096)
			}
		})
		e.Run()
	})
	m.set("ssd.write4k_host_ns", ns, n)

	ns, n = timeRun(items/4, func(n int) {
		e := sim.NewEngine()
		net := netsim.New(e, netsim.TenGbE("private"))
		net.AddNode("a")
		net.AddNode("b")
		e.Go("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				net.Send(p, "a", "b", 4096)
			}
		})
		e.Run()
	})
	m.set("netsim.send_host_ns", ns, n)
}
