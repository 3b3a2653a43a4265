package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ecarray/internal/qos"
)

// MaxShardBytes bounds one shard body on the OSD daemon (a gateway chunk
// stream for a max-size object comfortably fits).
const MaxShardBytes = 128 << 20

// maxHead bounds one head, its first line and header lines together; a
// longer request head is answered 431 and its connection closed. A
// head the gateway builds is a shard path, its key escaped from at most
// maxKeyBytes, and three short headers, its request ID bounded by
// maxRequestIDLen.
const maxHead = 64 << 10

// lingerDelay is how long a connection stays half-closed after an answer
// that left its request body unread, before it is closed. Closing it at
// once would reset it while the peer is still sending, and the reset can
// discard the answer before the peer reads it (net/http waits as long).
const lingerDelay = 500 * time.Millisecond

// OSDServer is the ecstored daemon over one ShardStore: the BlobNode of
// the service split, answering HTTP/1.1 on connections of its own (Serve).
// It is store-agnostic: ecstored serves a MemStore through it, and tests
// serve their own stores.
type OSDServer struct {
	id        int
	store     ShardStore
	log       *slog.Logger
	reg       *Registry
	admission qos.AdmissionPolicy // nil: every request enters
	maxShard  int64               // PUT body limit: MaxShardBytes, smaller only in tests
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

// SetAdmission guards every request with pol: it is admitted under the
// identity in its X-Tenant header (empty = anonymous) for as long as it
// runs, body read included, or refused with 429 and a Retry-After hint.
// ecstored uses it to bound per-daemon inflight work (-max-inflight); the
// gateway classifies the resulting 429s as transient and retries around
// them. Set it before Serve.
func (s *OSDServer) SetAdmission(pol qos.AdmissionPolicy) { s.admission = pol }

// Serve answers the daemon's routes on every connection ln accepts, until
// ln is closed, and returns Accept's error:
//
//	PUT    /v1/shards/{key}/{idx}  store one shard (body = shard bytes)
//	GET    /v1/shards/{key}/{idx}  read it
//	DELETE /v1/shards/{key}/{idx}  remove it
//	GET    /v1/stat                backend stat
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness
//
// A connection is one goroutine reading requests off a bufio.Reader, one
// after another (pipelined ones too), and writing each answer in one write
// (a GET in one writev of the head and the stored shard). An unknown path
// is a 404, a known one under another method a 405 (HEAD is a GET without
// the body), a malformed head or shard path a 400 and an over-long head a
// 431; every error answer carries the JSON error envelope. Closing ln
// leaves the connections it accepted open.
func (s *OSDServer) Serve(ln net.Listener) error {
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil {
			// Out of descriptors, say: wait and retry, as net/http does,
			// rather than take the daemon down.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		go s.serveConn(nc)
	}
}

// daemonConn is one connection's state, reused request after request.
type daemonConn struct {
	headReader
	s    *OSDServer
	nc   net.Conn
	out  []byte      // an answer's head, and a body that is not a stored shard
	bufs [2][]byte   // backs wv
	wv   net.Buffers // a GET's writev: head and stored shard
	req  httpHead    // the request being answered
	rid  string      // the request ID a shard answer echoes
	dead bool        // a write failed: the connection carries nothing more
}

// serveConn answers nc's requests until it is closed, breaks or asks to
// be closed. A head that cannot be taken is answered 400, or 431 when it
// is too long.
func (s *OSDServer) serveConn(nc net.Conn) {
	c := &daemonConn{s: s, nc: nc, headReader: headReader{br: bufio.NewReader(nc)}}
	for {
		c.rid = ""
		switch err := c.readHead(&c.req, false); err {
		case nil:
			c.serve()
		case errBadHead, errHeadTooLarge:
			code := http.StatusBadRequest
			if err == errHeadTooLarge {
				code = http.StatusRequestHeaderFieldsTooLarge
			}
			c.req.close, c.req.unread = true, true
			c.fail(code, http.StatusText(code))
		default: // the peer left or broke off mid-head
			nc.Close()
			return
		}
		if c.dead || c.req.close {
			break
		}
	}
	if cw, ok := nc.(interface{ CloseWrite() error }); ok && c.req.unread && !c.dead {
		_ = cw.CloseWrite()
		time.Sleep(lingerDelay)
	}
	nc.Close()
}

// headReader reads HTTP/1.1 heads off br: the daemon's requests and,
// in OSDClient, the daemon's answers.
type headReader struct {
	br   *bufio.Reader
	long []byte // a head line longer than br's buffer, put together
}

// httpHead is what either end of the shard hop keeps of a head: the
// daemon of a request, OSDClient of an answer.
type httpHead struct {
	method     string // a request's GET, HEAD, PUT or DELETE; "" for any other
	target     []byte // a request's target, copied out of br
	code       int    // an answer's status
	declared   int64  // Content-Length; -1 when the head has none
	chunked    bool   // Transfer-Encoding: chunked
	expect     bool   // Expect: 100-continue
	close      bool   // close the connection after this message
	unread     bool   // a request body the answer has not read
	id         string // a request's X-Request-ID as sent
	tenant     string // X-Tenant
	retryAfter string // an answer's Retry-After
}

// errBadHead is a head that is malformed, or one the reader does not
// take; errHeadTooLarge is one past maxHead.
var (
	errBadHead      = errors.New("malformed head")
	errHeadTooLarge = errors.New("head too large")
)

// readHead reads one head into r, an answer's when answer is set, else a
// request's; an I/O error, the peer leaving included, is returned as is.
// An answer the daemon does not send is errBadHead: a 1xx, any version but
// HTTP/1.1, a chunked body, a second Retry-After, or a body of no declared
// length but a 204's or a 304's (which have none whatever they declare).
func (h *headReader) readHead(r *httpHead, answer bool) error {
	*r = httpHead{target: r.target[:0], declared: -1}
	left := maxHead
	line, err := h.readLine(&left)
	if err != nil {
		return err
	}
	// The line's three parts: a request's method, target and version, or
	// an answer's version, status code and reason.
	first, rest, _ := bytes.Cut(line, []byte{' '})
	second, third, ok := bytes.Cut(rest, []byte{' '})
	http10 := !answer && string(third) == "HTTP/1.0"
	if answer {
		n, isNum := parseLength(second)
		if !ok || string(first) != "HTTP/1.1" || len(second) != 3 || !isNum || n < 200 {
			return errBadHead
		}
		r.code = int(n)
	} else {
		if !ok || !isToken(first) || len(second) == 0 || second[0] != '/' || hasCTL(second, false) ||
			!http10 && string(third) != "HTTP/1.1" {
			return errBadHead
		}
		r.close = http10 // no keep-alive for HTTP/1.0
		for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete} {
			if string(first) == m {
				r.method = m
			}
		}
		r.target = append(r.target, second...)
	}
	for retry := false; ; {
		if line, err = h.readLine(&left); err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := headerField(line)
		switch {
		case !ok:
			return errBadHead
		case foldEqual(name, "Content-Length"):
			n, ok := parseLength(value)
			if !ok || r.declared >= 0 {
				return errBadHead
			}
			r.declared = n
		case foldEqual(name, "Transfer-Encoding"):
			// Only chunked, once, and only in HTTP/1.1: anything else
			// is a body whose end two parsers could disagree on.
			if r.chunked || !foldEqual(value, "chunked") || http10 {
				return errBadHead
			}
			r.chunked = true
		case foldEqual(name, "Expect"):
			r.expect = foldEqual(value, "100-continue")
		case foldEqual(name, "Connection"):
			for rest := value; len(rest) > 0; {
				var tok []byte
				tok, rest, _ = bytes.Cut(rest, []byte{','})
				r.close = r.close || foldEqual(bytes.Trim(tok, " \t"), "close")
			}
		case answer && foldEqual(name, "Retry-After"):
			if retry {
				return errBadHead
			}
			r.retryAfter, retry = string(value), true
		case !answer && foldEqual(name, RequestIDHeader): // an answer's echoes ours
			r.id = string(value)
		case foldEqual(name, TenantHeader):
			r.tenant = string(value)
		}
	}
	if answer && (r.code == http.StatusNoContent || r.code == http.StatusNotModified) {
		r.declared = 0
	}
	if r.chunked && r.declared >= 0 || answer && (r.chunked || r.declared < 0) {
		return errBadHead
	}
	r.unread = r.declared > 0 || r.chunked
	return nil
}

// readLine returns the next head line without its line end (CRLF or a
// bare LF), charging it against left. The line is valid until the next
// read.
func (h *headReader) readLine(left *int) ([]byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		h.long = append(h.long[:0], line...)
		for err == bufio.ErrBufferFull && len(h.long) <= *left {
			line, err = h.br.ReadSlice('\n')
			h.long = append(h.long, line...)
		}
		line = h.long
	}
	if *left -= len(line); *left < 0 {
		return nil, errHeadTooLarge
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// headerField splits a header line into its name and its value, trimmed
// of spaces and tabs; ok is false for a line that is not a header field.
func headerField(line []byte) (name, value []byte, ok bool) {
	name, value, ok = bytes.Cut(line, []byte{':'})
	value = bytes.Trim(value, " \t")
	return name, value, ok && isToken(name) && !hasCTL(value, true)
}

// isToken reports whether b is a non-empty HTTP token (a method or a
// header name).
func isToken(b []byte) bool {
	for _, ch := range b {
		if ch <= ' ' || ch >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, ch) >= 0 {
			return false
		}
	}
	return len(b) > 0
}

// hasCTL reports whether b holds a control character; a tab counts only
// when tabOK is false.
func hasCTL(b []byte, tabOK bool) bool {
	for _, ch := range b {
		if (ch < ' ' && !(tabOK && ch == '\t')) || ch == 0x7f {
			return true
		}
	}
	return false
}

// foldEqual reports whether b is s, ASCII case-insensitively.
func foldEqual(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// parseLength parses a Content-Length: decimal digits only, no sign.
func parseLength(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n int64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int64(ch-'0')
	}
	return n, n >= 0 // 19 digits can overflow
}

// serve routes the request in c.req and answers it.
func (c *daemonConn) serve() {
	s, r := c.s, &c.req
	if s.admission != nil {
		release, err := admitRequest(s.admission, r.tenant)
		if err != nil {
			code, retry := httpStatus(err)
			c.answer(code, "application/json", "Retry-After: "+retry+"\r\n", jsonBody(errorBody{Error: err.Error()}))
			return
		}
		defer release()
	}
	path := r.target
	if i := bytes.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	method := r.method
	if method == http.MethodHead {
		method = http.MethodGet
	}
	if rest, ok := bytes.CutPrefix(path, []byte("/v1/shards/")); ok {
		key, idx, ok := bytes.Cut(rest, []byte{'/'})
		switch {
		case !ok || len(key) == 0 || len(idx) == 0 || bytes.IndexByte(idx, '/') >= 0:
			c.fail(http.StatusNotFound, "no route for "+string(path))
		case method == http.MethodPut:
			c.serveShard("put", key, idx)
		case method == http.MethodGet:
			c.serveShard("get", key, idx)
		case method == http.MethodDelete:
			c.serveShard("delete", key, idx)
		default:
			c.fail(http.StatusMethodNotAllowed, "method not allowed")
		}
		return
	}
	switch string(path) {
	case "/v1/stat", "/metrics", "/healthz":
		if method != http.MethodGet {
			c.fail(http.StatusMethodNotAllowed, "method not allowed")
			return
		}
	default:
		c.fail(http.StatusNotFound, "no route for "+string(path))
		return
	}
	switch string(path) {
	case "/v1/stat":
		st, err := s.store.Stat(context.Background())
		if err != nil {
			c.fail(http.StatusInternalServerError, err.Error())
			return
		}
		c.answer(http.StatusOK, "application/json", "", jsonBody(st))
	case "/metrics":
		var buf bytes.Buffer
		_ = s.reg.WritePrometheus(&buf)
		c.answer(http.StatusOK, "text/plain; version=0.0.4", "", buf.Bytes())
	case "/healthz":
		c.answer(http.StatusOK, "text/plain; charset=utf-8", "", []byte("ok\n"))
	}
}

// head appends an answer's status line and headers to c.out: the request
// ID for a shard op, ctype, the extra header lines hdr, the body length n
// (none on a 204) and whether the connection closes after it. An answer
// that leaves a request body unread closes it: the rest of the body stands
// where the next request would.
func (c *daemonConn) head(code int, ctype, hdr string, n int) []byte {
	if c.req.unread {
		c.req.close = true
	}
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(code), 10)
	b = append(append(append(b, ' '), http.StatusText(code)...), "\r\n"...)
	if c.rid != "" {
		b = append(append(append(b, RequestIDHeader+": "...), c.rid...), "\r\n"...)
	}
	if ctype != "" {
		b = append(append(append(b, "Content-Type: "...), ctype...), "\r\n"...)
	}
	b = append(b, hdr...)
	if code != http.StatusNoContent {
		b = strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10)
		b = append(b, "\r\n"...)
	}
	if c.req.close {
		b = append(b, "Connection: close\r\n"...)
	}
	c.out = append(b, "\r\n"...)
	return c.out
}

// answer writes one answer in one write, body copied in behind the head.
func (c *daemonConn) answer(code int, ctype, hdr string, body []byte) {
	b := c.head(code, ctype, hdr, len(body))
	if c.req.method != http.MethodHead {
		b = append(b, body...)
	}
	c.out = b
	if _, err := c.nc.Write(b); err != nil {
		c.dead = true
	}
}

// fail answers code with the JSON error envelope.
func (c *daemonConn) fail(code int, msg string) {
	c.answer(code, "application/json", "", jsonBody(errorBody{Error: msg}))
}

// writeShard answers a GET with data: the head and the shard in one
// writev, from the buffer data is. sent counts the shard bytes written.
func (c *daemonConn) writeShard(data []byte) (sent int, err error) {
	head := c.head(http.StatusOK, "application/octet-stream", "", len(data))
	if c.req.method == http.MethodHead {
		data = nil
	}
	c.wv = append(c.bufs[:0], head, data)
	n, err := c.wv.WriteTo(c.nc)
	c.bufs = [2][]byte{} // the shard is not ours to hold
	if err != nil {
		c.dead = true
	}
	return max(int(n)-len(c.out), 0), err
}

// readShardBody reads a PUT body: a declared one into a buffer of its
// length, a chunked one under the shard limit, trailer included. A store
// that takes the buffer over gets an exact-length one, any other store a
// pool buffer (readBody).
func (c *daemonConn) readShardBody() ([]byte, error) {
	s, r := c.s, &c.req
	if r.declared > s.maxShard {
		return nil, &http.MaxBytesError{Limit: s.maxShard}
	}
	if r.expect && r.unread {
		if _, err := io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			c.dead = true
			return nil, err
		}
	}
	if !r.chunked {
		body, err := readBody(c.br, max(r.declared, 0), s.maxShard, s.mem == nil)
		r.unread = r.unread && err != nil
		return body, err
	}
	cr := http.MaxBytesReader(nil, io.NopCloser(httputil.NewChunkedReader(c.br)), s.maxShard)
	body, err := readBody(cr, -1, s.maxShard, s.mem == nil)
	if err == nil {
		err = c.readTrailer()
	}
	if err != nil {
		return nil, err
	}
	r.unread = false
	return body, nil
}

// maxTrailer bounds a chunked body's trailer, as net/http's reader of one
// does: its header lines and blank line must fit one bufio.Reader buffer.
const maxTrailer = 4 << 10

// errBadTrailer is a chunked body's trailer that is not header lines,
// each ending in CRLF, then a blank line, within maxTrailer.
var errBadTrailer = errors.New("malformed trailer after chunked body")

// readTrailer reads the trailer of a chunked body up to its blank line.
func (c *daemonConn) readTrailer() error {
	for left := maxTrailer; ; {
		line, err := c.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return errBadTrailer
		}
		if err != nil {
			return err
		}
		var crlf bool
		if line, crlf = bytes.CutSuffix(line, []byte("\r\n")); !crlf || len(line) > left-2 {
			return errBadTrailer
		}
		left -= len(line) + 2
		if len(line) == 0 {
			return nil
		}
		if _, _, ok := headerField(line); !ok {
			return errBadTrailer
		}
	}
}

// serveShard runs one shard op, answers it, and keeps its series and its
// access line.
func (c *daemonConn) serveShard(op string, keySeg, idxSeg []byte) {
	s, r := c.s, &c.req
	start := time.Now()
	c.rid = r.id
	if !validRequestID(c.rid) {
		c.rid = newRequestID()
	}
	key, keyErr := url.PathUnescape(string(keySeg))
	idx, idxErr := strconv.Atoi(string(idxSeg))
	ctx := context.Background()
	var (
		status int
		n      int64
		opErr  error
	)
	switch {
	case key == "" || keyErr != nil || idxErr != nil || idx < 0:
		status = http.StatusBadRequest
		c.fail(status, "bad shard path: want /v1/shards/{key}/{idx}")
	case op == "put":
		body, err := c.readShardBody()
		if err != nil {
			// Only an oversized body is 413; a sender that went away
			// mid-body (a cancelled hedge or timed-out send) is a 400.
			status = http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			c.fail(status, "reading body: "+err.Error())
			break
		}
		if s.mem != nil {
			s.mem.keep(key, idx, body)
		} else {
			opErr = s.store.Put(ctx, key, idx, body)
			putShardBuf(body) // Put has returned: body is ours again
		}
		status = shardStatus(opErr)
		if opErr != nil {
			c.fail(status, opErr.Error())
			break
		}
		n = int64(len(body))
		s.bytesIn.Add(n)
		c.answer(http.StatusOK, "", "", nil)
	case op == "get":
		// MemStore's stored buffer is served as it is and stays the
		// store's; any other store's Get result is ours (ShardStore.Get).
		var data []byte
		if s.mem != nil {
			data, opErr = s.mem.kept(key, idx)
		} else {
			data, opErr = s.store.Get(ctx, key, idx)
		}
		status = shardStatus(opErr)
		if opErr != nil {
			c.fail(status, opErr.Error())
			break
		}
		s.bytesOut.Add(int64(len(data)))
		// A write that fails is the gateway leaving mid-body (a cancelled
		// hedge, a deadline): the connection is closed short of the
		// answer's Content-Length.
		var sent int
		sent, opErr = c.writeShard(data)
		n = int64(sent)
		if s.mem == nil {
			putShardBuf(data)
		}
	case op == "delete":
		opErr = s.store.Delete(ctx, key, idx)
		status = shardStatus(opErr)
		if opErr != nil {
			c.fail(status, opErr.Error())
			break
		}
		status = http.StatusNoContent
		c.answer(status, "", "", nil)
	}
	series, dur := s.ops[op], time.Since(start)
	if status == okCode[op] {
		series.ok.Inc()
	} else {
		s.reg.Counter(requestsSeries("ecstored_ops_total", op, status)).Inc()
	}
	series.seconds.Observe(dur)
	attrs := []slog.Attr{
		slog.String("request_id", c.rid),
		slog.String("op", op), slog.String("key", key), slog.Int("idx", idx),
		slog.Int("status", status), slog.Int64("bytes", n),
		slog.Int64("us", dur.Microseconds()),
	}
	if opErr != nil {
		attrs = append(attrs, slog.String("error", opErr.Error()))
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "shard", attrs...)
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
