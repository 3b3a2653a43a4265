package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecarray/internal/crush"
	"ecarray/internal/service"
)

// The fixed topology of every svc-* workload: six memory-backed ecstored
// daemons, one per failure domain, behind one RS(4,2) gateway with 64 KiB
// chunks and a metadata WAL that fsyncs every record.
const (
	numOSDs   = 6
	dataK     = 4
	parityM   = 2
	chunkSize = 64 << 10
)

// daemon is one child process in its own process group.
type daemon struct {
	name string
	bin  string
	args []string
	url  string
	log  string // stderr goes here
	cmd  *exec.Cmd
}

func (d *daemon) start() error {
	// Append: the crash leg restarts the gateway and both lives matter.
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child keeps its own descriptor
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stderr = logf
	// Own process group, so one kill reaches anything the daemon forks; and
	// the kernel kills it if the harness dies without running its defers.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	return nil
}

func (d *daemon) pid() int {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return 0
	}
	return d.cmd.Process.Pid
}

// kill sends SIGKILL to the daemon's process group and waits for it.
func (d *daemon) kill() {
	if d.pid() == 0 {
		return
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // already gone is fine
	_ = d.cmd.Wait()                            // "signal: killed" is the expected result
	d.cmd = nil
}

// logTail returns the last few lines the daemon wrote, for error reports.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}

// workdir is the harness's scratch directory: daemon logs, the gateway WAL
// and a pids file naming the daemons it started. A directory left behind by
// a run whose daemons are still alive is refused, never reused.
type workdir struct{ path string }

func openWorkdir(path string) (*workdir, error) {
	if data, err := os.ReadFile(filepath.Join(path, "pids")); err == nil {
		for _, f := range strings.Fields(string(data)) {
			pid, _ := strconv.Atoi(f)
			cmdline, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
			if strings.Contains(string(cmdline), "ecgate") || strings.Contains(string(cmdline), "ecstored") {
				return nil, fmt.Errorf("a previous run's daemon is still alive (pid %d, %s); kill it before starting another run in %s",
					pid, strings.ReplaceAll(strings.TrimRight(string(cmdline), "\x00"), "\x00", " "), path)
			}
		}
	}
	if err := os.RemoveAll(path); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &workdir{path}, nil
}

func (w *workdir) notePID(pid int) error {
	f, err := os.OpenFile(filepath.Join(w.path, "pids"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, pid); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *workdir) remove() { _ = os.RemoveAll(w.path) }

// freePorts reserves n distinct loopback ports by holding n listeners open
// at once, then releases them for the daemons to bind.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// cluster is a running topology: the six OSD daemons and a gateway that is
// either the ecgate binary (untraced) or a service.Gateway built in this
// process with the harness's span recorders around it (traced).
type cluster struct {
	wd      *workdir
	osds    []*daemon
	gate    *daemon     // nil when traced
	inproc  *inprocGate // nil when untraced
	gateURL string
	osdURLs []string
	osdc    []*service.OSDClient
	admin   *service.GateClient // status, faults, metrics; not a load connection
	hc      *http.Client
}

// startCluster boots the topology in wd and waits until every process
// answers. With tr set the gateway runs in-process and records spans.
func startCluster(ctx context.Context, binDir string, wd *workdir, tr *tracer) (c *cluster, err error) {
	ports, err := freePorts(numOSDs + 1)
	if err != nil {
		return nil, err
	}
	c = &cluster{wd: wd, hc: &http.Client{Timeout: 10 * time.Second}}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	for i := 0; i < numOSDs; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		d := &daemon{
			name: fmt.Sprintf("ecstored-%d", i),
			bin:  filepath.Join(binDir, "ecstored"),
			args: []string{"-listen", addr, "-id", strconv.Itoa(i), "-backend", "mem"},
			url:  "http://" + addr,
			log:  filepath.Join(wd.path, fmt.Sprintf("ecstored-%d.log", i)),
		}
		if err := c.launch(d); err != nil {
			return nil, err
		}
		c.osds = append(c.osds, d)
		c.osdURLs = append(c.osdURLs, d.url)
		c.osdc = append(c.osdc, service.NewOSDClient(i, d.url))
	}
	for i, d := range c.osds {
		if err := waitHealthy(ctx, c.osdc[i].Healthz); err != nil {
			return nil, fmt.Errorf("%s not ready: %w\n%s", d.name, err, d.logTail())
		}
	}

	gateAddr := fmt.Sprintf("127.0.0.1:%d", ports[numOSDs])
	c.gateURL = "http://" + gateAddr
	c.admin = service.NewGateClient(c.gateURL)
	metaDir := filepath.Join(wd.path, "meta")
	gateLog := filepath.Join(wd.path, "ecgate.log")
	if tr != nil {
		if c.inproc, err = startInprocGate(gateAddr, c.osdURLs, metaDir, gateLog, tr); err != nil {
			return nil, err
		}
	} else {
		c.gate = &daemon{
			name: "ecgate",
			bin:  filepath.Join(binDir, "ecgate"),
			args: []string{"-listen", gateAddr, "-backend", "osd",
				"-k", strconv.Itoa(dataK), "-m", strconv.Itoa(parityM), "-chunk", strconv.Itoa(chunkSize),
				"-meta-dir", metaDir, "-osd-urls", strings.Join(c.osdURLs, ",")},
			url: c.gateURL,
			log: gateLog,
		}
		if err := c.launch(c.gate); err != nil {
			return nil, err
		}
	}
	if err := c.admin.WaitReady(ctx, 20*time.Second); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, c.gateLogTail())
	}
	return c, nil
}

func (c *cluster) launch(d *daemon) error {
	if err := d.start(); err != nil {
		return err
	}
	return c.wd.notePID(d.pid())
}

func (c *cluster) gateLogTail() string {
	if c.gate != nil {
		return c.gate.logTail()
	}
	return ""
}

// waitHealthy polls probe until it succeeds or 20 s pass.
func waitHealthy(ctx context.Context, probe func(context.Context) error) error {
	deadline := time.Now().Add(20 * time.Second)
	for wait := 5 * time.Millisecond; ; wait *= 2 {
		err := probe(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return err
		}
		time.Sleep(min(wait, 200*time.Millisecond))
	}
}

// crashGate is the durability leg: kill -9 the gateway, start it again on
// the same port and WAL directory, and wait until it serves.
func (c *cluster) crashGate(ctx context.Context) error {
	if c.gate == nil {
		return errors.New("crash leg needs the ecgate process (untraced run)")
	}
	c.gate.kill()
	if err := c.launch(c.gate); err != nil {
		return err
	}
	if err := c.admin.WaitReady(ctx, 20*time.Second); err != nil {
		return fmt.Errorf("gateway did not come back: %w\n%s", err, c.gate.logTail())
	}
	return nil
}

// stop kills every process of the cluster and waits for each to end.
func (c *cluster) stop() {
	if c.inproc != nil {
		c.inproc.stop()
		c.inproc = nil
	}
	if c.gate != nil {
		c.gate.kill()
	}
	for _, d := range c.osds {
		d.kill()
	}
}

// getText fetches url's body as text.
func (c *cluster) getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: http %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// storedBytes sums the shard bytes every OSD reports on /v1/stat.
func (c *cluster) storedBytes(ctx context.Context) (int64, error) {
	var sum int64
	for i, oc := range c.osdc {
		st, err := oc.Stat(ctx)
		if err != nil {
			return 0, fmt.Errorf("stat osd %d: %w", i, err)
		}
		sum += st.Bytes
	}
	return sum, nil
}

// counters is everything read at the process boundary at one instant.
type counters struct {
	gate     map[string]float64 // the gateway's /metrics
	osd      map[string]float64 // the six daemons' /metrics, summed by series
	gateProc procSample         // zero when the gateway is in-process
	osdProc  procSample         // summed; HWMMB is the largest
}

func (c *cluster) readCounters(ctx context.Context) (counters, error) {
	var out counters
	text, err := c.getText(ctx, c.gateURL+"/metrics")
	if err != nil {
		return out, err
	}
	out.gate = parseProm(text)
	out.osd = map[string]float64{}
	for _, d := range c.osds {
		text, err := c.getText(ctx, d.url+"/metrics")
		if err != nil {
			return out, err
		}
		for k, v := range parseProm(text) {
			out.osd[k] += v
		}
		p, err := readProc(d.pid())
		if err != nil {
			return out, err
		}
		out.osdProc = out.osdProc.add(p)
	}
	if c.gate != nil {
		if out.gateProc, err = readProc(c.gate.pid()); err != nil {
			return out, err
		}
	}
	return out, nil
}

// inprocGate is the traced gateway: service.NewGateway built from the same
// configuration ecgate's flags produce, each OSD client wrapped in a span
// recorder, and the handler wrapped in one too.
type inprocGate struct {
	gw   *service.Gateway
	srv  *http.Server
	done chan struct{}
	logf *os.File
}

func startInprocGate(addr string, osdURLs []string, metaDir, logPath string, tr *tracer) (*inprocGate, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cfg := service.DefaultGatewayConfig()
	cfg.K, cfg.M, cfg.ChunkSize = dataK, parityM, chunkSize
	cfg.Backend = "osd"
	cfg.MetaDir = metaDir
	cfg.Logger = slog.New(slog.NewJSONHandler(logf, nil))
	stores := make([]service.ShardStore, len(osdURLs))
	for i, u := range osdURLs {
		stores[i] = tracedStore{ShardStore: service.NewOSDClient(i, u), tr: tr}
	}
	placer, err := service.NewPlacer(crush.Uniform(len(osdURLs), 1), cfg.K+cfg.M)
	if err != nil {
		logf.Close()
		return nil, err
	}
	gw, err := service.NewGateway(cfg, stores, placer)
	if err != nil {
		logf.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		gw.Close()
		logf.Close()
		return nil, err
	}
	g := &inprocGate{gw: gw, srv: &http.Server{Handler: tr.middleware(gw.Handler())}, done: make(chan struct{}), logf: logf}
	go func() {
		defer close(g.done)
		_ = g.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return g, nil
}

func (g *inprocGate) stop() {
	_ = g.srv.Close()
	<-g.done
	_ = g.gw.Close()
	_ = g.logf.Close()
}
