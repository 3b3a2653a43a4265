package service

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testDaemon is an OSDServer serving a loopback listener, as ecstored
// serves its own. Close closes the listener and every connection it
// accepted, so a client holding one sees the daemon go away.
type testDaemon struct {
	net.Listener
	URL      string
	wrap     func(net.Conn) net.Conn // applied to each accepted connection
	accepted atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

// startDaemon serves s on a fresh loopback port until the test ends.
func startDaemon(tb testing.TB, s *OSDServer) *testDaemon {
	return serveDaemon(tb, s, "127.0.0.1:0", nil)
}

// serveDaemon serves s on addr, each accepted connection passed through
// wrap when it is set, until the test ends.
func serveDaemon(tb testing.TB, s *OSDServer, addr string, wrap func(net.Conn) net.Conn) *testDaemon {
	tb.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	d := &testDaemon{Listener: ln, URL: "http://" + ln.Addr().String(), wrap: wrap}
	go s.Serve(d) //nolint:errcheck // returns once d is closed
	tb.Cleanup(func() { d.Close() })
	return d
}

func (d *testDaemon) Accept() (net.Conn, error) {
	nc, err := d.Listener.Accept()
	if err != nil {
		return nil, err
	}
	d.accepted.Add(1)
	d.mu.Lock()
	d.conns = append(d.conns, nc)
	d.mu.Unlock()
	if d.wrap != nil {
		nc = d.wrap(nc)
	}
	return nc, nil
}

func (d *testDaemon) Close() error {
	err := d.Listener.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, nc := range d.conns {
		nc.Close()
	}
	d.conns = nil
	return err
}

// pipeEnd is one end of an in-memory connection made of two io.Pipes. As
// on a net.Pipe, a Write returns only once the other end has read it, so
// what a client has written is what the daemon consumed; unlike one, the
// client end can CloseWrite, so a request that ends short of its body
// reaches the daemon as an early EOF while the daemon's answer can still
// be read.
type pipeEnd struct {
	r *io.PipeReader
	w *io.PipeWriter
}

// halfPipe returns a client end and a daemon end. The daemon end has no
// CloseWrite, so the daemon closes it at once rather than lingering.
func halfPipe() (client *pipeEnd, daemon net.Conn) {
	r1, w1 := io.Pipe()
	r2, w2 := io.Pipe()
	return &pipeEnd{r: r1, w: w2}, struct{ net.Conn }{&pipeEnd{r: r2, w: w1}}
}

func (p *pipeEnd) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeEnd) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeEnd) CloseWrite() error           { return p.w.Close() }
func (p *pipeEnd) Close() error {
	p.r.Close()
	return p.w.Close()
}
func (p *pipeEnd) LocalAddr() net.Addr              { return pipeAddr{} }
func (p *pipeEnd) RemoteAddr() net.Addr             { return pipeAddr{} }
func (p *pipeEnd) SetDeadline(time.Time) error      { return nil }
func (p *pipeEnd) SetReadDeadline(time.Time) error  { return nil }
func (p *pipeEnd) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// osdSend sends one request to s over a halfPipe of its own and returns
// the answer's status (0 if none came) and how many body bytes the daemon
// consumed. A declared length of -1 sends body chunked, and a body that
// ends in an error other than io.EOF is cut off where it failed, without
// the last chunk; either way the client half-closes after the body.
func osdSend(s *OSDServer, method, path string, body io.Reader, declared int64) (code int, consumed int64) {
	cli, srv := halfPipe()
	defer cli.Close()
	go s.serveConn(srv)
	answered := make(chan int, 1)
	go func() {
		resp, err := http.ReadResponse(bufio.NewReader(cli), nil)
		if err != nil {
			answered <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		answered <- resp.StatusCode
	}()
	head := method + " " + path + " HTTP/1.1\r\nHost: osd\r\n"
	if declared >= 0 {
		head += "Content-Length: " + strconv.FormatInt(declared, 10) + "\r\n"
	} else {
		head += "Transfer-Encoding: chunked\r\n"
	}
	if _, err := io.WriteString(cli, head+"\r\n"); err == nil && body != nil {
		counted := writeFunc(func(p []byte) (int, error) {
			n, err := cli.Write(p)
			consumed += int64(n)
			return n, err
		})
		if declared >= 0 {
			_, _ = io.Copy(counted, body)
		} else {
			cw := httputil.NewChunkedWriter(counted)
			if _, err := io.Copy(cw, body); err == nil {
				_ = cw.Close()
				_, _ = io.WriteString(cli, "\r\n")
			}
		}
	}
	_ = cli.CloseWrite()
	return <-answered, consumed
}

// writeFunc is an io.Writer made of a function.
type writeFunc func(p []byte) (int, error)

func (f writeFunc) Write(p []byte) (int, error) { return f(p) }
