package service

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecarray/internal/retry"
)

// StatusError is a non-2xx response from a service endpoint, preserving
// the code and Retry-After hint so callers can distinguish 404 / 429 /
// 503 programmatically.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: http %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("service: http %d", e.Code)
}

// send builds and issues one GateClient request: the optional body, the
// context's request ID, and the tenant header when there is one. A body of
// at least minPooledShard is lent, not copied: net/http reads it in place
// as a lentBody, and a bodyConn sends it in one write. net/http may go on
// reading a lent body after Do returns (an early 413 or 503), and nothing
// waits for it to finish. A smaller body goes out as a
// *bytes.Reader, which net/http writes together with the headers (a
// lentBody's headers take a write of their own, which costs more than
// copying a small body).
func send(ctx context.Context, hc *http.Client, method, u string, body []byte, tenant string) (*http.Response, error) {
	var rd io.Reader
	if body != nil && len(body) < minPooledShard {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil && rd == nil {
		lend := func() (io.ReadCloser, error) { return &lentBody{rest: body}, nil }
		req.Body, _ = lend()
		req.GetBody, req.ContentLength = lend, int64(len(body))
	}
	setRequestIDHeader(ctx, req)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	return hc.Do(req)
}

// lentBody is a request body over a buffer net/http only borrows, read in
// place. (Not being one of the in-memory readers net/http recognises, it
// makes the request headers go out in a write of their own.)
type lentBody struct {
	rest []byte // what is left to send
}

func (b *lentBody) Read(p []byte) (int, error) {
	if len(b.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

// WriteTo writes what is left in one Write.
func (b *lentBody) WriteTo(w io.Writer) (int64, error) {
	if len(b.rest) == 0 {
		return 0, nil
	}
	n, err := w.Write(b.rest)
	b.rest = b.rest[n:]
	return int64(n), err
}

func (b *lentBody) Close() error { return nil }

// bodyConn is a client connection that sends a lent body in one write.
// net/http hands a request body with a declared length to the connection's
// ReadFrom as an *io.LimitedReader over the body, and a *net.TCPConn copies
// that through a 32 KiB buffer, a write per 32 KiB. When the body is a
// lentBody with exactly the limit left, bodyConn writes it in one Write
// instead; any other reader is copied as the connection would copy it.
type bodyConn struct{ net.Conn }

func (c bodyConn) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if b, ok := lr.R.(*lentBody); ok && lr.N == int64(len(b.rest)) {
			n, err := b.WriteTo(c.Conn)
			lr.N -= n
			return n, err
		}
	}
	return io.Copy(c.Conn, r)
}

// finish consumes and closes a GateClient response. On 2xx, out says what
// the caller wants of the body: a *[]byte takes it raw in an exact-length
// buffer, nil drains it (so the connection is reused), anything else is
// JSON-decoded into. Any other status is decodeError's. No body read has
// a limit of its own: the caller asked for whatever the object holds.
func finish(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return decodeError(resp.StatusCode, raw, resp.Header.Get("Retry-After"))
	}
	var err error
	switch out := out.(type) {
	case nil:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	case *[]byte:
		*out, err = readBody(resp.Body, resp.ContentLength, math.MaxInt64, false)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// decodeError turns a non-2xx answer, of GateClient or OSDClient, into an
// error, keeping the full status detail (the 429/503 semantics matter to
// callers) and the message of the JSON error envelope in body, except for
// 404, which is the ErrNotFound sentinel.
func decodeError(code int, body []byte, retryAfter string) error {
	if code == http.StatusNotFound {
		return ErrNotFound
	}
	var eb errorBody
	_ = json.Unmarshal(body, &eb)
	return &StatusError{Code: code, Message: eb.Error, RetryAfter: retryAfter}
}

// newHTTPClient is GateClient's HTTP client over connections from dial,
// each wrapped in a bodyConn.
func newHTTPClient(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return bodyConn{c}, nil
	}
	return &http.Client{Transport: tr}
}

// maxIdleOSDConns caps the keep-alive connections an OSDClient keeps idle.
const maxIdleOSDConns = 64

const (
	earlyAnswerBody  = 64 << 10              // a body that may not fit the socket buffers
	earlyAnswerDelay = 10 * time.Millisecond // runs this long before write hears an early answer
)

// OSDClient is the gateway-side ShardStore speaking HTTP/1.1 to one
// ecstored daemon over keep-alive connections of its own. A request runs
// on the caller's goroutine: its head and body leave in one writev, and
// its answer is read with the daemon's own head reader (readHead).
type OSDClient struct {
	id   int
	addr string // the daemon's host:port, also the Host header
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle []*osdConn // LIFO: the last one idled is the likeliest still open
}

// osdConn is one keep-alive connection to the daemon.
type osdConn struct {
	net.Conn
	headReader
	out  []byte      // a request's head
	bufs [2][]byte   // backs wv
	wv   net.Buffers // a request's writev: head and body
}

// OSDAddr returns the host:port of an ecstored URL, http://host:port.
func OSDAddr(baseURL string) (string, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Port() == "" || baseURL != "http://"+u.Host {
		return "", fmt.Errorf("service: OSD address %q is not http://host:port", baseURL)
	}
	return u.Host, nil
}

// NewOSDClient targets an ecstored daemon at baseURL (e.g.
// "http://127.0.0.1:7411") as OSD id; over one OSDAddr rejects, every op
// is ErrOSDDown (the address is empty, and no dial reaches it).
func NewOSDClient(id int, baseURL string) *OSDClient {
	addr, _ := OSDAddr(baseURL)
	return &OSDClient{id: id, addr: addr, dial: (&net.Dialer{}).DialContext}
}

func shardPath(key string, shard int) string {
	return "/v1/shards/" + pathSegment(key) + "/" + strconv.Itoa(shard)
}

// call is one daemon request, written and read on the caller's goroutine
// (so body is the caller's again when it returns), and returns a 2xx
// answer's body in a shard-pool buffer. The two ways a daemon is down from
// the gateway's view both come back as ErrOSDDown: it cannot be reached
// (dial, transport or deadline failure before an answer, or an answer it
// does not send: readHead), or it answers 503; any other non-2xx is
// decodeError's. A cancellation while the body is arriving returns ctx's
// error, also when the connection's deadline beats ctx's timer. ctx's
// deadline is the connection's, and its cancellation cuts the connection,
// which is never reused then. Every shard op is idempotent, so a reused
// connection that fails before a byte of the answer arrives (the daemon
// closed it while idle, or restarted) is redialled once.
func (c *OSDClient) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	for fresh := false; ; fresh = true {
		cn, reused, err := c.conn(ctx, fresh)
		if err != nil {
			return nil, downErr(ctx, err)
		}
		deadline, _ := ctx.Deadline()
		_ = cn.SetDeadline(deadline)
		stop := context.AfterFunc(ctx, func() { cn.Close() })
		werr := cn.write(ctx, method, c.addr, path, body)
		// A daemon that answers without reading the body (a 503, a 429)
		// fails or cuts the write; its answer is read all the same.
		_, err = cn.br.Peek(1)
		answered := err == nil
		var a httpHead
		if answered {
			err = cn.readHead(&a, true)
		}
		if err != nil {
			stop()
			cn.Close()
			if !answered && reused && ctx.Err() == nil {
				continue
			}
			return nil, downErr(ctx, cmp.Or(werr, err))
		}
		data, err := readBody(cn.br, a.declared, math.MaxInt64, true)
		if stop() && werr == nil && err == nil && !a.close && cn.br.Buffered() == 0 {
			c.idled(cn)
		} else {
			cn.Close()
		}
		switch {
		case err != nil && (ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded)):
			return nil, cmp.Or(ctx.Err(), context.DeadlineExceeded)
		case a.code > 299:
			var se *StatusError
			if err = decodeError(a.code, data, a.retryAfter); errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
				err = fmt.Errorf("%w: %s", ErrOSDDown, se.Message)
			}
			return nil, err
		}
		return data, err
	}
}

// downErr is a failure before an answer. A cancellation reads as ctx's
// error, not as the cut connection it caused.
func downErr(ctx context.Context, err error) error {
	return fmt.Errorf("%w: %v", ErrOSDDown, cmp.Or(ctx.Err(), err))
}

// conn returns the connection idled last or, when fresh is set or none is
// idle, a new one; reused says which.
func (c *OSDClient) conn(ctx context.Context, fresh bool) (cn *osdConn, reused bool, err error) {
	if !fresh {
		c.mu.Lock()
		if n := len(c.idle); n > 0 {
			cn, c.idle[n-1], c.idle = c.idle[n-1], nil, c.idle[:n-1]
		}
		c.mu.Unlock()
		if cn != nil {
			return cn, true, nil
		}
	}
	nc, err := c.dial(ctx, "tcp", c.addr)
	if err != nil {
		return nil, false, err
	}
	return &osdConn{Conn: nc, headReader: headReader{br: bufio.NewReader(nc)}}, false, nil
}

// idled keeps cn for the next request, or closes it when
// maxIdleOSDConns are idle already.
func (c *OSDClient) idled(cn *osdConn) {
	c.mu.Lock()
	if len(c.idle) < maxIdleOSDConns {
		c.idle, cn = append(c.idle, cn), nil
	}
	c.mu.Unlock()
	if cn != nil {
		cn.Close()
	}
}

// write sends the request head and body in one writev (a write each on a
// connection that is not a *net.TCPConn). The request ID is forwarded
// when it is a valid one (validRequestID): a daemon refuses a head with a
// control character in it, and bounds its length (maxHead). A daemon may
// answer a large body (a 503, a 429) unread and stall with the connection
// open, so a goroutine started after earlyAnswerDelay waits for that
// answer and cuts the write; write returns only after it, so the body and
// cn.br are the caller's again.
func (cn *osdConn) write(ctx context.Context, method, host, path string, body []byte) error {
	h := append(cn.out[:0], method...)
	h = append(append(append(h, ' '), path...), " HTTP/1.1\r\nHost: "...)
	h = append(h, host...)
	if body != nil {
		h = strconv.AppendInt(append(h, "\r\nContent-Length: "...), int64(len(body)), 10)
	}
	if id := RequestIDFrom(ctx); validRequestID(id) {
		h = append(append(h, "\r\n"+RequestIDHeader+": "...), id...)
	}
	cn.out = append(h, "\r\n\r\n"...)
	cn.bufs = [2][]byte{cn.out, body}
	cn.wv = cn.bufs[:]
	if len(body) == 0 {
		// Only a *net.TCPConn's writev skips an empty buffer. On a
		// net.Pipe, a write of one waits for the daemon to read it.
		cn.wv = cn.bufs[:1]
	}
	if len(body) >= earlyAnswerBody {
		heard := make(chan struct{})
		t := time.AfterFunc(earlyAnswerDelay, func() {
			_, _ = cn.br.Peek(1)
			_ = cn.SetWriteDeadline(time.Now())
			close(heard)
		})
		defer func() {
			if !t.Stop() {
				<-heard
			}
		}()
	}
	_, err := cn.wv.WriteTo(cn.Conn)
	cn.bufs = [2][]byte{} // the body is the caller's again
	return err
}

// Put implements ShardStore: data is the caller's again once it returns.
func (c *OSDClient) Put(ctx context.Context, key string, shard int, data []byte) error {
	_, err := c.call(ctx, http.MethodPut, shardPath(key, shard), data)
	return err
}

// Get implements ShardStore. The shard arrives in a shard-pool buffer.
func (c *OSDClient) Get(ctx context.Context, key string, shard int) ([]byte, error) {
	return c.call(ctx, http.MethodGet, shardPath(key, shard), nil)
}

// Delete implements ShardStore.
func (c *OSDClient) Delete(ctx context.Context, key string, shard int) error {
	_, err := c.call(ctx, http.MethodDelete, shardPath(key, shard), nil)
	return err
}

// Stat implements ShardStore.
func (c *OSDClient) Stat(ctx context.Context) (st OSDStat, err error) {
	data, err := c.call(ctx, http.MethodGet, "/v1/stat", nil)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	st.ID = c.id
	return st, err
}

// Healthz probes the daemon's liveness endpoint.
func (c *OSDClient) Healthz(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// GateClient is the object-level HTTP client for an ecgate gateway — what
// load drivers and the service's own tests speak. Object ops retry
// 429/503 responses automatically (bodies are byte slices, so every
// attempt re-sends the full payload), honoring the server's Retry-After
// hint capped at maxRetryWait.
type GateClient struct {
	base   string
	hc     *http.Client
	retry  retry.Policy
	tenant string
}

// NewGateClient targets a gateway at baseURL.
func NewGateClient(baseURL string) *GateClient {
	return &GateClient{
		base: strings.TrimRight(baseURL, "/"),
		hc:   newHTTPClient(http.DefaultTransport.(*http.Transport).DialContext),
		// Up to 2 re-sends, 50ms exponential base, both the backoff and
		// any server Retry-After hint capped at 500ms so drivers and
		// tests stay fast.
		retry: retry.Policy{Max: 2, Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond},
	}
}

// SetRetries overrides the automatic 429/503 retry budget (0 disables —
// useful for tests asserting raw server behavior).
func (c *GateClient) SetRetries(n int) {
	if n >= 0 {
		c.retry.Max = n
	}
}

func (c *GateClient) objectURL(key string) string {
	return c.base + "/v1/objects/" + pathSegment(key)
}

// pathSegment escapes key as one URL path segment. url.PathEscape leaves
// "." and ".." as they are, and a ServeMux cleans such a segment out of
// the path with a redirect (which turns a PUT into a GET); written as %2E,
// the dots reach the handler as the key.
func pathSegment(key string) string {
	if key == "." || key == ".." {
		return strings.Repeat("%2E", len(key))
	}
	return url.PathEscape(key)
}

// call is one admin request, sent once and finished into out.
func (c *GateClient) call(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := send(ctx, c.hc, method, c.base+path, body, c.tenant)
	if err != nil {
		return err
	}
	return finish(resp, out)
}

// doRetry issues an object request, re-sending on 429 (admission overload)
// and 503 (temporarily short on shards) until the retry budget runs out.
// The final response — whatever its code — is finished into out; its
// headers are returned for callers that read them.
func (c *GateClient) doRetry(ctx context.Context, method, key string, body []byte, out any) (http.Header, error) {
	for attempt := 0; ; attempt++ {
		resp, err := send(ctx, c.hc, method, c.objectURL(key), body, c.tenant)
		if err != nil {
			return nil, err
		}
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || c.retry.Exhausted(attempt) {
			return resp.Header, finish(resp, out)
		}
		wait := c.retryWait(resp, attempt)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// retryWait picks the pause before a re-send: the server's Retry-After
// seconds when present and sane, else a small exponential backoff; both
// capped so drivers and tests stay fast.
func (c *GateClient) retryWait(resp *http.Response, attempt int) time.Duration {
	wait := c.retry.Backoff(attempt)
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	return c.retry.Clamp(wait)
}

// PutObject stores data under key.
func (c *GateClient) PutObject(ctx context.Context, key string, data []byte) (oi ObjectInfo, err error) {
	_, err = c.doRetry(ctx, http.MethodPut, key, data, &oi)
	return oi, err
}

// GetObject reads key back; degraded reports whether the gateway had to
// reconstruct data shards from parity.
func (c *GateClient) GetObject(ctx context.Context, key string) (data []byte, degraded bool, err error) {
	h, err := c.doRetry(ctx, http.MethodGet, key, nil, &data)
	return data, h.Get("X-EC-Degraded") == "true", err
}

// SetFault replaces one OSD's fault spec through the gateway's admin
// surface — the service's kill switch: FaultSpec{Partition: true} cuts the
// OSD off, the zero spec heals it.
func (c *GateClient) SetFault(ctx context.Context, osd int, spec FaultSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return c.call(ctx, http.MethodPost, fmt.Sprintf("/v1/faults/%d", osd), body, nil)
}

// WaitReady polls /healthz until the deadline (boot synchronization for
// load drivers), backing off exponentially between probes so a slow boot
// is not hammered with a tight poll loop.
func (c *GateClient) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wait := 10 * time.Millisecond
	for {
		err := c.call(ctx, http.MethodGet, "/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: gateway not ready: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > 400*time.Millisecond {
			wait = 400 * time.Millisecond
		}
	}
}
