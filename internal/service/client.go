package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// send builds and issues one request: the optional body, the context's
// request ID, and the tenant header when there is one.
func send(ctx context.Context, hc *http.Client, method, u string, body []byte, tenant string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	setRequestIDHeader(ctx, req)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	return hc.Do(req)
}

// finish consumes and closes a response. On 2xx, out says what the caller
// wants of the body: a *[]byte takes it raw, nil drains it (so the
// connection is reused), anything else is JSON-decoded into. Any other
// status becomes an error: ErrNotFound for 404, else a StatusError.
func finish(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	switch out := out.(type) {
	case nil:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	case *[]byte:
		var err error
		// No limit of our own: the caller asked for whatever the object
		// or shard holds.
		*out, err = readBody(resp.Body, resp.ContentLength, math.MaxInt64)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// decodeError turns a non-2xx response into an error, keeping the full
// status detail (the 429/503 semantics matter to callers) except for 404,
// which is the ErrNotFound sentinel.
func decodeError(resp *http.Response) error {
	var body errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	_ = json.Unmarshal(raw, &body)
	if resp.StatusCode == http.StatusNotFound {
		return ErrNotFound
	}
	return &StatusError{Code: resp.StatusCode, Message: body.Error, RetryAfter: resp.Header.Get("Retry-After")}
}

func defaultHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: tr}
}

// OSDClient is the gateway-side ShardStore speaking HTTP to one ecstored
// daemon.
type OSDClient struct {
	id   int
	base string
	hc   *http.Client
}

// NewOSDClient targets an ecstored daemon at baseURL (e.g.
// "http://127.0.0.1:7411") as OSD id.
func NewOSDClient(id int, baseURL string) *OSDClient {
	return &OSDClient{id: id, base: strings.TrimRight(baseURL, "/"), hc: defaultHTTPClient()}
}

func (c *OSDClient) shardURL(key string, shard int) string {
	return fmt.Sprintf("%s/v1/shards/%s/%d", c.base, url.PathEscape(key), shard)
}

// call is one daemon request finished into out. The two ways a daemon is
// down from the gateway's view both come back as ErrOSDDown: it cannot be
// reached (connection refused / reset / deadline), or it answers 503.
func (c *OSDClient) call(ctx context.Context, method, u string, body []byte, out any) error {
	resp, err := send(ctx, c.hc, method, u, body, "")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrOSDDown, err)
	}
	err = finish(resp, out)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
		return fmt.Errorf("%w: %s", ErrOSDDown, se.Message)
	}
	return err
}

// Put implements ShardStore.
func (c *OSDClient) Put(ctx context.Context, key string, shard int, data []byte) error {
	return c.call(ctx, http.MethodPut, c.shardURL(key, shard), data, nil)
}

// Get implements ShardStore.
func (c *OSDClient) Get(ctx context.Context, key string, shard int) (data []byte, err error) {
	err = c.call(ctx, http.MethodGet, c.shardURL(key, shard), nil, &data)
	return data, err
}

// Delete implements ShardStore.
func (c *OSDClient) Delete(ctx context.Context, key string, shard int) error {
	return c.call(ctx, http.MethodDelete, c.shardURL(key, shard), nil, nil)
}

// Stat implements ShardStore.
func (c *OSDClient) Stat(ctx context.Context) (st OSDStat, err error) {
	err = c.call(ctx, http.MethodGet, c.base+"/v1/stat", nil, &st)
	st.ID = c.id
	return st, err
}

// Healthz probes the daemon's liveness endpoint.
func (c *OSDClient) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, c.base+"/healthz", nil, nil)
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
		hc:   defaultHTTPClient(),
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

// SetTenant attaches an X-Tenant header to every object request, so the
// gateway's admission policy applies this client's per-tenant limits.
func (c *GateClient) SetTenant(tenant string) { c.tenant = tenant }

func (c *GateClient) objectURL(key string) string {
	return c.base + "/v1/objects/" + url.PathEscape(key)
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

// DeleteObject removes key.
func (c *GateClient) DeleteObject(ctx context.Context, key string) error {
	_, err := c.doRetry(ctx, http.MethodDelete, key, nil, nil)
	return err
}

// Status fetches /v1/status.
func (c *GateClient) Status(ctx context.Context) (st StatusInfo, err error) {
	err = c.call(ctx, http.MethodGet, "/v1/status", nil, &st)
	return st, err
}

// OSDs fetches /v1/osds.
func (c *GateClient) OSDs(ctx context.Context) (out []OSDStatus, err error) {
	err = c.call(ctx, http.MethodGet, "/v1/osds", nil, &out)
	return out, err
}

// Faults fetches every OSD's injection spec and stats.
func (c *GateClient) Faults(ctx context.Context) (out []FaultStatus, err error) {
	err = c.call(ctx, http.MethodGet, "/v1/faults", nil, &out)
	return out, err
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

// MetricsText fetches the raw /metrics exposition.
func (c *GateClient) MetricsText(ctx context.Context) (string, error) {
	var raw []byte
	err := c.call(ctx, http.MethodGet, "/metrics", nil, &raw)
	return string(raw), err
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
