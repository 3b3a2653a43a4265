// Package service is the networked BlobStore-style frontend over the
// erasure-coded storage engine: the layer that turns this repository from a
// library + bench harness into something that listens on a socket.
//
// The shape follows cubeFS BlobStore's module split (Access / BlobNode),
// scaled to this repo:
//
//	Module    Binary        Role
//	------    ------        ----
//	Gateway   cmd/ecgate    Access layer: object PUT/GET/DELETE over HTTP,
//	                        RS(k,m) striping in rs.StreamEncode's layout,
//	                        CRUSH shard placement, degraded-read fallback,
//	                        admission control, request logs, /metrics.
//	OSD       cmd/ecstored  BlobNode layer: one shard-store daemon per OSD,
//	                        serving shard read/write/delete from an
//	                        in-memory shard map.
//
// The seam between them is the ShardStore interface: the gateway speaks it,
// and two implementations exist —
//
//   - MemStore: a mutex-guarded in-memory shard map (what ecstored serves,
//     and what `ecgate -backend mem` boots in process);
//   - OSDClient: the HTTP client for a remote ecstored daemon.
//
// Because placement (CRUSH straw2 over the healthy map), striping geometry
// (per-object chunk size, RS(k,m)) and shard layout are identical across
// backends, the same gateway code path is exercised whether the shards
// live in process memory or behind real HTTP daemons.
//
// # Data path
//
// A PUT is admitted and placed before a byte of its body is read (a
// refused upload costs nothing, and an admitted one reads its body under
// the request deadline); then PutObjectFrom reads every stripe's k chunks
// from the request body straight to their final offsets in k+m
// whole-shard buffers, zeroes the padding after the payload's last byte,
// and encodes that stripe's parity in place beside them — byte for byte
// the shards rs.StreamEncode writes, with no stripe buffer and no
// per-shard sink in between. The buffers are granted the way readBody
// grants a declared length: k+m idle pool buffers of the whole shard
// length when the pool has them, else bodyHead between the data shards
// first, then at most eight times what has arrived. ChunkSize (-chunk) is
// the largest stripe unit; objects smaller than a stripe use a smaller
// one, recorded per object (Gateway.chunkFor, objectMeta.chunk, the WAL
// record's optional "chunk"), so what is stored is (k+m)/k × the object
// plus at most 512 bytes per chunk at every size. The shards are fanned
// out to the placed OSDs with a per-shard deadline; at least k writes
// must land or the put fails with ErrInsufficientShards (HTTP 503) and the
// partial shards are deleted. A PUT that landed k or more commits the new
// generation to the index (and fsyncs it to the WAL first, when there is
// one) and answers; only then are the superseded generation's shards
// deleted. GET fetches the k data shards first; any shard that
// is down, slow past its deadline, or corrupt-length is replaced by parity
// fetches and the missing data shards are rebuilt whole
// (rs.ReconstructData) — a degraded read, counted on /metrics and proven
// byte-identical to the healthy read by tests. GetObjectTo then gives its
// admission slot back, sends the headers and writes the payload chunk by
// chunk from the shard buffers to the client; there is no whole-object
// buffer on either path. DELETE forgets the object (durably, with a WAL)
// and answers; a subsequent GET is 404, and its shards are deleted after
// that.
//
// No response waits for a shard delete. Gateway.deleteShards, the one
// cleanup path (a rolled-back PUT's own generation, an overwrite's
// superseded one, a DELETEd object), runs in the background once the
// outcome is decided and durable; a GET that starts after the answer sees
// it, because the index moved first. The cleanup keeps the request's
// admission slot until its deletes return: a slot covers a request's
// work, not its response (a GET, too, gives its slot back before the
// payload goes out), so MaxInflight, the tenant shares and
// ecgate_inflight count pending cleanups. Gateway.Close waits for them. A
// kill -9 before a cleanup ends leaves orphan shards, as it always could.
//
// Every shard buffer has one owner (the rule is on ShardStore): Put
// borrows the caller's buffer until it returns, and Get's result is the
// caller's. So the gateway and readBody draw their whole-shard buffers
// from one size-classed pool (shardbuf.go; its classes are an eighth of a
// power of two apart, so a buffer holds at most an eighth more than its
// shard) and give them back when done: the gateway's PUT shards once every
// shard Put has returned, and its fetched and rebuilt GET shards once the
// response is written. A body its reader keeps is read into an
// exact-length buffer instead: GateClient's GET, and ecstored's PUT body
// over a MemStore, which stores the very buffer the body was read into and
// answers a GET by writing that buffer, never modified, to the socket. On
// the hop to ecstored, OSDClient speaks HTTP/1.1 itself over keep-alive
// connections the gateway owns: a shard op runs on the caller's goroutine,
// and its request head and shard leave in one writev from the caller's
// buffer. A daemon may answer (a 503, a 429) before it reads a shard and
// then stall; a write of 64 KiB or more still running after 10 ms gets a
// goroutine that waits for that answer and cuts the write once it is in.
// The daemon's end speaks HTTP/1.1 itself too (OSDServer.Serve): one
// goroutine per connection reads requests off a bufio.Reader and answers
// each in one write, a GET in one writev of its head and the stored shard.
// Both ends parse heads with one reader (readHead), without net/http.
// GateClient uploads go through net/http, handed the body in place
// (lentBody) over a connection that sends it in one write (bodyConn). So no
// payload byte is copied in user space between client, gateway and
// ecstored; in steady state the gateway allocates nothing sized by the
// object and ecstored only the shards it stores. A shard still crosses the
// seam as one []byte, so every process holds whole shards; streaming them
// (ROADMAP item 1) waits for the benchmark harness, whose tracedStore and
// stage replay speak that []byte interface.
//
// # Production concerns
//
// Bounded in-flight admission returns 429 (with Retry-After) when the
// gateway is saturated; fewer than k reachable shards returns 503 with
// Retry-After; /v1/osds health (gateway_down, consecutive_fails,
// last_error) and /v1/status.osds_down are read off each OSD's circuit
// Breaker, the one per-OSD health record; every request emits one structured (slog JSON) log line; /metrics exposes
// Prometheus-text counters and latency histograms (per-op latency, bytes
// in/out, degraded reads, reconstructions, shard errors, admission drops).
//
// # Gateway source map
//
// The gateway is three files on three seams (cubeFS's Access /
// ClusterManager / Proxy split, scaled down), plus the fault injector, the
// HTTP clients and the shard daemon they speak to:
//
//	gateway.go           data path: config, PUT/GET/DELETE, /v1/status
//	osd.go               per OSD: store + Breaker + the one resilient shard
//	                     op every PUT, GET and DELETE shard goes through
//	index.go, metawal.go object index (lookup/commit/remove) and its WAL
//	faultstore.go        how an OSD fails: the one fault injector, wrapped
//	                     around every backend's store by NewGateway
//	client.go            OSDClient, HTTP/1.1 on the caller's goroutine over
//	                     its own connections, plus a listener for an early
//	                     answer to a large body; GateClient over net/http
//	                     (send, finish); decodeError for both
//	server.go            OSDServer, ecstored's HTTP/1.1 request loop (one
//	                     goroutine per connection, one write per answer),
//	                     and readHead, the head reader of both ends
//	shardbuf.go          the shard-buffer pool the data path recycles
//	                     through
//
// # Resilience
//
// The shard data path is tail-tolerant, mirroring the simulator's
// gray-failure subsystem at the HTTP tier. Transient shard-op failures are
// retried with exponential backoff and seeded jitter (Retries/RetryBase/
// RetryMax); shard GETs that stall past HedgeDelay launch one hedged
// duplicate whose loser is cancelled and never scored against the OSD
// (truthful scoring); and a per-OSD circuit Breaker (consecutive-failure
// or EWMA trip → open → half-open probe → closed) ejects a persistently
// failing OSD from the data path until it proves itself again. Every
// gateway wraps its stores in a FaultStore — a deterministic, seeded
// fault injector (error probability, latency inflation, stuck ops, full
// partition) runtime-controlled via POST /v1/faults/{osd} on ecgate. It
// is the only injector and the gateway is the only tier: killing an OSD
// is {"partition":true}, on the mem and osd backends alike, so the
// whole stack is chaos-testable over real sockets (a real crash is a real
// kill -9 of the daemon).
//
// With MetaDir set the object index is crash-safe: every put/delete is
// appended to an fsynced JSONL write-ahead log (metaWAL) before it is
// acknowledged, snapshot-compacted once the log outgrows its threshold,
// and replayed on startup — a killed and restarted gateway serves every
// acknowledged object byte-identically. X-Request-ID correlation ties one
// object request to its shard requests across both daemons' logs, and
// GateClient retries 429/503 responses honoring Retry-After.
package service
