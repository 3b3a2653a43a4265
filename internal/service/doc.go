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
//	                        serving shard read/write/delete against a
//	                        pluggable backend (in-memory or simulated
//	                        BlueStore+SSD).
//
// The seam between them is the ShardStore interface: the gateway speaks it,
// and three implementations exist —
//
//   - MemStore: a mutex-guarded in-memory shard map (the ecstored default);
//   - SimCluster / SimStore: the simulated cluster as a backend — every
//     shard op runs through the deterministic discrete-event engine against
//     a BlueStore-like store on a simulated SSD, so `ecgate -backend=sim`
//     boots a full in-process "virtual cluster" that is load-testable with
//     no real daemons and byte-deterministic under a fixed seed;
//   - OSDClient: the HTTP client for a remote ecstored daemon.
//
// Because placement (CRUSH straw2 over the healthy map), striping geometry
// (per-object chunk size, RS(k,m)) and shard layout are identical across
// backends, the same gateway code path is exercised whether the shards
// live in process memory, in the simulator, or behind real HTTP daemons.
//
// # Data path
//
// Each process writes each payload byte once. A PUT is admitted and placed
// before a byte of its body is read (a refused upload costs nothing, and
// an admitted one reads its body under the request deadline); then
// PutObjectFrom reads every stripe's k chunks from the request body
// straight to their final offsets in k+m whole-shard buffers and encodes
// that stripe's parity in place beside them — byte for byte the shards
// rs.StreamEncode writes, with no stripe buffer and no per-shard sink in
// between. The buffers are granted the way readBody grants a declared
// length: bodyHead between the data shards first, then at most eight times
// what has arrived. ChunkSize (-chunk) is the largest stripe unit; objects
// smaller than a stripe use a smaller one, recorded per object
// (Gateway.chunkFor, objectMeta.chunk, the WAL record's optional "chunk"),
// so what is stored is (k+m)/k × the object plus at most 512 bytes per
// chunk at every size. The shards are fanned out to the placed OSDs with a
// per-shard deadline; at least k writes must land or the put fails with
// ErrInsufficientShards (HTTP 503) and the partial shards are deleted.
// GET fetches the k data shards first; any shard that is down, slow past
// its deadline, or corrupt-length is replaced by parity fetches and the
// missing data shards are rebuilt whole (rs.ReconstructData) — a degraded
// read, counted on /metrics and proven byte-identical to the healthy read
// by tests. GetObjectTo then gives its admission slot back, sends the
// headers and writes the payload chunk by chunk from the shard buffers to
// the client; there is no whole-object buffer on either path. DELETE fans
// out shard deletes and forgets the object; a subsequent GET is 404.
//
// Shard buffers cross ShardStore by reference (the ownership rule is on
// the interface): ecstored stores the buffer it read a PUT body into and
// serves a GET from the buffer it holds, and an in-process MemStore keeps
// the gateway's shard buffers themselves. What remains is that a shard
// crosses the seam as one []byte, so both daemons hold whole shards;
// streaming them (ROADMAP item 1) waits for the benchmark harness, whose
// tracedStore and stage replay speak that []byte interface.
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
// ClusterManager / Proxy split, scaled down), plus the fault injector and
// the HTTP clients:
//
//	gateway.go           data path: config, PUT/GET/DELETE, /v1/status
//	osd.go               per OSD: store + Breaker + the one resilient shard
//	                     op every PUT, GET and DELETE shard goes through
//	index.go, metawal.go object index (lookup/commit/remove) and its WAL
//	faultstore.go        how an OSD fails: the one fault injector, wrapped
//	                     around every backend's store by NewGateway
//	client.go            GateClient and OSDClient over one request path
//	                     (send, finish)
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
// is {"partition":true}, on the sim, mem and osd backends alike, so the
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
