package service

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// MaxShardBytes bounds one shard body on the OSD daemon (a gateway chunk
// stream for a max-size object comfortably fits).
const MaxShardBytes = 128 << 20

// OSDServer is the ecstored daemon's HTTP surface over one ShardStore:
// the BlobNode of the service split. It is store-agnostic: ecstored serves
// a MemStore through it, and tests serve their own stores.
type OSDServer struct {
	id       int
	store    ShardStore
	log      *slog.Logger
	reg      *Registry
	maxShard int64 // PUT body limit: MaxShardBytes, smaller only in tests
	// mem is store when that is a *MemStore: the daemon then hands it the
	// PUT body buffer it read (keep) and serves GETs from the buffer it
	// stores (kept), so a shard is not copied on either side.
	mem *MemStore

	// Resolved once, so a shard request neither formats a series name nor
	// takes the registry mutex unless it failed.
	ops               map[string]osdOpSeries
	bytesIn, bytesOut *Counter
}

// osdOpSeries is one op's share of the daemon's series.
type osdOpSeries struct {
	ok      *Counter   // ecstored_ops_total{op,code=okCode[op]}
	seconds *Histogram // ecstored_op_seconds{op}
}

// NewOSDServer wraps a shard store for OSD id.
func NewOSDServer(id int, store ShardStore, logger *slog.Logger) *OSDServer {
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	reg := NewRegistry()
	s := &OSDServer{id: id, store: store, log: logger, reg: reg, maxShard: MaxShardBytes,
		ops:      map[string]osdOpSeries{},
		bytesIn:  reg.Counter("ecstored_bytes_in_total"),
		bytesOut: reg.Counter("ecstored_bytes_out_total"),
	}
	s.mem, _ = store.(*MemStore)
	for _, op := range shardOps {
		s.ops[op] = osdOpSeries{
			ok:      reg.Counter(requestsSeries("ecstored_ops_total", op, okCode[op])),
			seconds: reg.Histogram(fmt.Sprintf("ecstored_op_seconds{op=%q}", op)),
		}
	}
	return s
}

// Handler returns the daemon's routes:
//
//	PUT    /v1/shards/{key}/{idx}  store one shard (body = shard bytes)
//	GET    /v1/shards/{key}/{idx}  read it
//	DELETE /v1/shards/{key}/{idx}  remove it
//	GET    /v1/stat                backend stat
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness
func (s *OSDServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/shards/{key}/{idx}", func(w http.ResponseWriter, r *http.Request) {
		s.serveShard(w, r, "put")
	})
	mux.HandleFunc("GET /v1/shards/{key}/{idx}", func(w http.ResponseWriter, r *http.Request) {
		s.serveShard(w, r, "get")
	})
	mux.HandleFunc("DELETE /v1/shards/{key}/{idx}", func(w http.ResponseWriter, r *http.Request) {
		s.serveShard(w, r, "delete")
	})
	mux.HandleFunc("GET /v1/stat", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.store.Stat(r.Context())
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// shardStatus maps store errors onto daemon status codes. ErrOSDDown maps
// to 503 so the gateway-side client can translate it back.
func shardStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrOSDDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *OSDServer) serveShard(w http.ResponseWriter, r *http.Request, op string) {
	start := time.Now()
	key := r.PathValue("key")
	reqID := requestID(w, r)
	idx, idxErr := strconv.Atoi(r.PathValue("idx"))
	var (
		status int
		n      int64
		opErr  error
	)
	switch {
	case key == "" || idxErr != nil || idx < 0:
		status = http.StatusBadRequest
		writeJSON(w, status, errorBody{Error: "bad shard path: want /v1/shards/{key}/{idx}"})
	case op == "put":
		// MemStore takes the body buffer over, so a declared body is read
		// into an exact-length one; any other store only borrows it
		// (ShardStore.Put), and it is a pool buffer.
		body, err := readBody(http.MaxBytesReader(w, r.Body, s.maxShard), r.ContentLength, s.maxShard, s.mem == nil)
		if err != nil {
			// Only an oversized body is 413; a sender that went away
			// mid-body (a cancelled hedge or timed-out send) is a 400.
			status = http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorBody{Error: "reading body: " + err.Error()})
			break
		}
		if s.mem != nil {
			opErr = s.mem.keep(r.Context(), key, idx, body)
		} else {
			opErr = s.store.Put(r.Context(), key, idx, body)
			putShardBuf(body) // Put has returned: body is ours again
		}
		status = shardStatus(opErr)
		if opErr != nil {
			writeJSON(w, status, errorBody{Error: opErr.Error()})
			break
		}
		n = int64(len(body))
		s.bytesIn.Add(n)
		w.WriteHeader(http.StatusOK)
	case op == "get":
		// MemStore's stored buffer is served as it is and stays the
		// store's; any other store's Get result is ours (ShardStore.Get).
		var data []byte
		if s.mem != nil {
			data, opErr = s.mem.kept(r.Context(), key, idx)
		} else {
			data, opErr = s.store.Get(r.Context(), key, idx)
		}
		status = shardStatus(opErr)
		if opErr != nil {
			writeJSON(w, status, errorBody{Error: opErr.Error()})
			break
		}
		s.bytesOut.Add(int64(len(data)))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusOK)
		// A write that fails is the gateway leaving mid-body (a cancelled
		// hedge, a deadline): the response stays short of its
		// Content-Length, so net/http closes the connection.
		var sent int
		sent, opErr = w.Write(data)
		n = int64(sent)
		if s.mem == nil {
			putShardBuf(data)
		}
	case op == "delete":
		opErr = s.store.Delete(r.Context(), key, idx)
		status = shardStatus(opErr)
		if opErr != nil {
			writeJSON(w, status, errorBody{Error: opErr.Error()})
			break
		}
		status = http.StatusNoContent
		w.WriteHeader(http.StatusNoContent)
	}
	series, dur := s.ops[op], time.Since(start)
	if status == okCode[op] {
		series.ok.Inc()
	} else {
		s.reg.Counter(requestsSeries("ecstored_ops_total", op, status)).Inc()
	}
	series.seconds.Observe(dur)
	attrs := []slog.Attr{
		slog.String("request_id", reqID),
		slog.String("op", op), slog.String("key", key), slog.Int("idx", idx),
		slog.Int("status", status), slog.Int64("bytes", n),
		slog.Float64("ms", float64(dur.Microseconds())/1e3),
	}
	if opErr != nil {
		attrs = append(attrs, slog.String("error", opErr.Error()))
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "shard", attrs...)
}
