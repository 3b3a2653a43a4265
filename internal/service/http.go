package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(jsonBody(v))
}

// jsonBody is v as every JSON answer of the gateway and the daemon
// carries it: indented, ending in a newline.
func jsonBody(v any) []byte {
	b, _ := json.MarshalIndent(v, "", "  ")
	return append(b, '\n')
}

// bodyHead is readBody's first buffer: what a sender is granted before it
// has sent anything.
const bodyHead = 1 << 20

// readBody reads a body whose sender declared its length (Content-Length;
// negative when it did not, as with a chunked body) into a buffer of that
// size, where io.ReadAll would start at 512 bytes and grow by a quarter at
// a time, copying and clearing a large body several times over. The
// declaration is a sizing hint, not trusted: a declared length over limit
// is refused as an *http.MaxBytesError before anything is allocated or
// read, a body that ends short of it is io.ErrUnexpectedEOF, and the
// buffer starts at bodyHead and is regrown to at most eight times the
// bytes that have arrived (a body up to 8 MiB costs one copy, of its first
// 1 MiB), so a peer that declares much and sends little pins little, and
// no declaration can ask for more memory than the bytes behind it earn.
// limit bounds only the declaration; the bytes actually read are bounded
// by r (the handlers pass an http.MaxBytesReader), which is all an
// undeclared body has. The caller owns the result. A declared body's
// interim buffers come from the shard pool and go back on a regrow; the
// one that holds the whole body is a pool buffer too when pooled is set,
// for a caller that hands it to putShardBuf when done with it, and an
// exact-length make otherwise, so a caller that keeps the bytes holds no
// more than they need. A pooled read starts in an idle pool buffer of the
// whole declared length when there is one: the schedule bounds what a
// sender makes us allocate, and a recycled buffer allocates nothing. So a
// shard over bodyHead arrives in one buffer, without a head buffer that
// would keep a pool class of its own filled.
func readBody(r io.Reader, declared, limit int64, pooled bool) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if declared < 0 {
		return io.ReadAll(r)
	}
	alloc := func(n int64) []byte {
		if n == declared && !pooled {
			return make([]byte, n)
		}
		return getShardBuf(int(n))
	}
	var buf []byte
	if pooled {
		buf = idleShardBuf(int(declared))
	}
	if buf == nil {
		buf = alloc(min(declared, bodyHead))
	}
	for n := 0; ; {
		m, err := io.ReadFull(r, buf[n:])
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			putShardBuf(buf)
			return nil, err
		}
		if n += m; int64(n) == declared {
			return buf, nil
		}
		head := buf
		buf = alloc(min(declared, 8*int64(n)))
		copy(buf, head)
		putShardBuf(head)
	}
}

// bodyError turns a failed read of a PUT body into the error its client is
// answered with: over the limit is ErrTooLarge (413); a body short of its
// declared length, a client that left, or one that stalled past the read
// deadline is ErrBadRequest (400).
func bodyError(err error, limit int64) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("%w: body over %d bytes", ErrTooLarge, limit)
	}
	return fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
}

// httpStatus maps gateway errors onto status codes and Retry-After hints.
// An admission rejection is an OverloadError carrying the policy's
// queue-derived hint, rendered in whole seconds with a 1-second floor.
func httpStatus(err error) (code int, retryAfter string) {
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, ""
	case errors.Is(err, ErrOverloaded):
		var hint time.Duration
		var oe *OverloadError
		if errors.As(err, &oe) {
			hint = oe.RetryAfter
		}
		return http.StatusTooManyRequests, retryAfterSeconds(hint)
	case errors.Is(err, ErrInsufficientShards):
		return http.StatusServiceUnavailable, "2"
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge, ""
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

func writeError(w http.ResponseWriter, err error) int {
	code, retry := httpStatus(err)
	if retry != "" {
		w.Header().Set("Retry-After", retry)
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
	return code
}

// Handler returns the gateway's HTTP surface:
//
//	PUT    /v1/objects/{key}   store an object (body = payload)
//	GET    /v1/objects/{key}   read it back (degraded reads transparent)
//	DELETE /v1/objects/{key}   remove it
//	GET    /v1/status          gateway + cluster summary
//	GET    /v1/osds            per-OSD stat + gateway health view
//	GET    /v1/faults          per-OSD injection specs + stats
//	POST   /v1/faults/{osd}    set an OSD's fault spec (JSON FaultSpec body:
//	                           {"partition":true} kills it, {} heals it)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("PUT /v1/objects/{key...}", func(w http.ResponseWriter, r *http.Request) {
		g.serveObject(w, r, "put")
	})
	mux.HandleFunc("GET /v1/objects/{key...}", func(w http.ResponseWriter, r *http.Request) {
		g.serveObject(w, r, "get")
	})
	mux.HandleFunc("DELETE /v1/objects/{key...}", func(w http.ResponseWriter, r *http.Request) {
		g.serveObject(w, r, "delete")
	})

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Status())
	})
	mux.HandleFunc("GET /v1/osds", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.OSDStatuses(r.Context()))
	})

	mux.HandleFunc("GET /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.FaultStatuses())
	})
	mux.HandleFunc("POST /v1/faults/{osd}", func(w http.ResponseWriter, r *http.Request) {
		osd, err := strconv.Atoi(r.PathValue("osd"))
		if err != nil || osd < 0 || osd >= len(g.osds) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad osd id"})
			return
		}
		serveSetFault(w, r, g.osds[osd].store, osd)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = g.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// serveSetFault decodes a FaultSpec body into one OSD's FaultStore. The
// decode is strict — an unknown field or anything after the object is a
// 400 — because a mistyped spec that answered 200 would leave the operator
// believing an OSD is cut off when nothing was injected.
func serveSetFault(w http.ResponseWriter, r *http.Request, fs *FaultStore, osd int) {
	var spec FaultSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<10))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the spec object")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad fault spec: " + err.Error()})
		return
	}
	if err := fs.SetFault(spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, FaultStatus{OSD: osd, Spec: fs.Fault(), Stats: fs.FaultStats()})
}

// serveObject is the object data path: admission, the op itself, then one
// structured log line and the per-op metrics.
func (g *Gateway) serveObject(w http.ResponseWriter, r *http.Request, op string) {
	start := time.Now()
	key := r.PathValue("key")
	reqID := requestID(w, r)
	tenant := r.Header.Get(TenantHeader)
	r = r.WithContext(WithTenant(WithRequestID(r.Context(), reqID), tenant))
	var (
		status  int
		bytesN  int64
		info    GetInfo
		written int
		opErr   error
	)
	switch op {
	case "put":
		// An admitted upload holds its slot while the body arrives, so the
		// body is read under the request's deadline too (net/http resets
		// it for the connection's next request). A writer with no
		// connection under it cannot set one and has no client to stall.
		_ = http.NewResponseController(w).SetReadDeadline(start.Add(g.cfg.RequestTimeout))
		limit := g.cfg.MaxObjectBytes
		body, size := io.Reader(http.MaxBytesReader(w, r.Body, limit)), r.ContentLength
		if size < 0 {
			// No declared length to lay the shards out by: read it whole.
			data, err := readBody(body, size, limit, true)
			if err != nil {
				opErr = bodyError(err, limit)
				status = writeError(w, opErr)
				break
			}
			defer putShardBuf(data)
			body, size = bytes.NewReader(data), int64(len(data))
		}
		oi, err := g.PutObjectFrom(r.Context(), key, body, size)
		if err != nil {
			opErr = err
			status = writeError(w, err)
			break
		}
		bytesN, written, status = oi.Size, oi.Written, http.StatusOK
		writeJSON(w, http.StatusOK, oi)
	case "get":
		info, bytesN, opErr = g.GetObjectTo(r.Context(), key, w, func(info GetInfo) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
			if info.Degraded {
				w.Header().Set("X-EC-Degraded", "true")
				w.Header().Set("X-EC-Reconstructed", strconv.Itoa(info.Reconstructed))
			}
			status = http.StatusOK
			w.WriteHeader(http.StatusOK)
		})
		// An error after the 200 went out is the client leaving mid-body:
		// the response stays short of its Content-Length, so net/http
		// closes the connection and the client sees an unexpected EOF.
		if opErr != nil && status == 0 {
			status = writeError(w, opErr)
		}
	case "delete":
		if opErr = g.DeleteObject(r.Context(), key); opErr != nil {
			status = writeError(w, opErr)
			break
		}
		status = http.StatusNoContent
		w.WriteHeader(http.StatusNoContent)
	}

	dur := time.Since(start)
	series := g.series.op[op]
	if status == okCode[op] {
		series.ok.Inc()
	} else {
		g.reg.Counter(requestsSeries("ecgate_requests_total", op, status)).Inc()
	}
	series.request.Observe(dur)
	if _, ts := g.tenant(tenant); ts != nil {
		ts.requests[op].Inc()
		ts.seconds.Observe(dur)
	}

	attrs := []slog.Attr{
		slog.String("request_id", reqID),
		slog.String("op", op),
		slog.String("key", key),
		slog.Int("status", status),
		slog.Int64("bytes", bytesN),
		slog.Int64("us", dur.Microseconds()),
	}
	if op == "get" && info.Degraded {
		attrs = append(attrs,
			slog.Bool("degraded", true),
			slog.Int("reconstructed", info.Reconstructed),
			slog.Int("shard_errors", info.ShardErrors))
	}
	if op == "put" && written > 0 && written < g.cfg.K+g.cfg.M {
		attrs = append(attrs, slog.Int("written_shards", written))
	}
	if tenant != "" {
		attrs = append(attrs, slog.String("tenant", tenant))
	}
	if opErr != nil {
		attrs = append(attrs, slog.String("error", opErr.Error()))
	}
	g.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}
