package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
)

// X-Request-ID propagation: the gateway stamps every object request with
// a request ID (client-supplied header or generated), carries it in the
// context through the data path, and the OSD HTTP client forwards it on
// every shard request — so one object op is correlatable across ecgate
// and ecstored structured logs.

// RequestIDHeader is the correlation header.
const RequestIDHeader = "X-Request-ID"

type reqIDKey struct{}

// WithRequestID attaches a request ID to ctx; clients forward it as the
// X-Request-ID header.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom extracts the request ID from ctx ("" if absent).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// newRequestID generates a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen bounds a client-supplied request ID. The gateway
// forwards the ID on every shard request and writes it into every access
// line, so a longer one, or one holding a control character, is replaced
// by a fresh ID rather than carried along.
const maxRequestIDLen = 128

// validRequestID reports whether id is one to carry: 1 to maxRequestIDLen
// bytes, no control characters.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < ' ' || id[i] == 0x7f {
			return false
		}
	}
	return true
}

// requestID resolves the effective ID for an incoming request: the
// client's header if it is a valid one, else a fresh one; it is echoed on
// the response so callers can correlate too.
func requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if !validRequestID(id) {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// setRequestIDHeader forwards a context-carried ID onto an outgoing
// request.
func setRequestIDHeader(ctx context.Context, req *http.Request) {
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
}
