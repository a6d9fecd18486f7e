package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/serve"
	"repro/internal/wire"
)

// launcher starts the programs under test: as real processes from built
// binaries (binDir set), or — for the smoke run and its tests — as
// goroutines of this process running the same node runtime.
type launcher struct {
	binDir string // empty = in-process
}

// proc is one running program under test: a child process, or an
// in-process goroutine with the same stdout protocol.
type proc struct {
	name   string
	pid    int // this process's own pid when in-process
	cmd    *exec.Cmd
	cancel context.CancelFunc // in-process only
	done   chan struct{}      // closed when the program has ended
	stdin  io.WriteCloser     // router only

	mu       sync.Mutex
	lines    map[string]string // "# key on value" announcements
	reported []time.Time       // reported[u] = when "[unit u]" was read
	notify   chan struct{}     // poked after every stdout line of interest
}

// watch parses the program's stdout: listener announcements and the
// per-unit report lines whose arrival times are the node-side clock of
// this benchmark. Everything else (alert detail) is drained and dropped.
func (p *proc) watch(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "[unit "):
			end := strings.IndexByte(line, ']')
			u, err := strconv.Atoi(line[len("[unit "):max(end, len("[unit "))])
			if err != nil {
				continue
			}
			now := time.Now()
			p.mu.Lock()
			for len(p.reported) <= u {
				p.reported = append(p.reported, time.Time{})
			}
			p.reported[u] = now
			p.mu.Unlock()
		case strings.HasPrefix(line, "# "):
			key, val, _ := strings.Cut(line[2:], " on ")
			f := strings.Fields(val)
			if len(f) == 0 {
				continue
			}
			p.mu.Lock()
			p.lines[key] = f[0]
			p.mu.Unlock()
		default:
			continue
		}
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// await blocks until cond holds (checked under the lock after every
// parsed line), the program ends, or the timeout passes.
func (p *proc) await(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		ok := cond()
		p.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-p.notify:
		case <-p.done:
			p.mu.Lock()
			ok := cond()
			p.mu.Unlock()
			if ok {
				return nil
			}
			return fmt.Errorf("%s ended while waiting for %s", p.name, what)
		case <-deadline.C:
			return fmt.Errorf("%s: timed out after %v waiting for %s", p.name, timeout, what)
		}
	}
}

// announced waits for a "# <key> on <addr>" line and returns the address.
func (p *proc) announced(key string) (string, error) {
	err := p.await(key, 20*time.Second, func() bool { return p.lines[key] != "" })
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lines[key], err
}

// unitReported waits for the "[unit u]" line and returns when it arrived.
func (p *proc) unitReported(u int64, timeout time.Duration) (time.Time, error) {
	err := p.await(fmt.Sprintf("unit %d", u), timeout, func() bool {
		return int64(len(p.reported)) > u && !p.reported[u].IsZero()
	})
	if err != nil {
		return time.Time{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reported[u], nil
}

// kill ends the program without a graceful flush and waits for it: kill
// -9 for a process; context cancellation for a goroutine (which does
// flush — the smoke run tolerates that, see drive.go's recovery step).
func (p *proc) kill() {
	if p.cmd != nil {
		_ = p.cmd.Process.Kill() // already-exited is fine: Wait below reaps it either way
	} else {
		p.cancel()
	}
	if p.stdin != nil {
		p.stdin.Close()
	}
	<-p.done
	untrack(p)
}

func newProc(name string) *proc {
	return &proc{name: name, done: make(chan struct{}), lines: map[string]string{}, notify: make(chan struct{}, 1)}
}

// startProcess runs a built binary, stderr to a log file in dir.
func (l launcher) startProcess(bin, name, dir string, wantStdin bool, args ...string) (*proc, error) {
	p := newProc(name)
	cmd := exec.Command(filepath.Join(l.binDir, bin), args...)
	logf, err := os.Create(filepath.Join(dir, name+".stderr"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if wantStdin {
		if p.stdin, err = cmd.StdinPipe(); err != nil {
			return nil, err
		}
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p.cmd, p.pid = cmd, cmd.Process.Pid
	track(p)
	go func() {
		p.watch(out)
		_ = cmd.Wait() // a killed child reports its signal here; the run does not depend on it
		close(p.done)
	}()
	return p, nil
}

// nodeSettings are the streamd settings a workload fixes; they render
// either as flags or as the node runtime's own config.
type nodeSettings struct {
	w          workload
	id         string
	walDir     string
	checkpoint string
}

func (s nodeSettings) flags() []string {
	args := []string{
		"-spec", s.w.spec, "-unit", strconv.Itoa(s.w.ticksPerUnit), "-shards", strconv.Itoa(s.w.shards),
		"-ingest-listen", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-node-id", s.id,
	}
	if s.w.tilt != "" {
		args = append(args, "-tilt", s.w.tilt)
	}
	if s.w.alertCrit > 0 {
		args = append(args, "-alert-crit", strconv.FormatFloat(s.w.alertCrit, 'g', -1, 64))
	}
	if s.w.durable {
		args = append(args, "-wal-dir", s.walDir, "-wal-sync", "interval", "-checkpoint", s.checkpoint)
	}
	return args
}

// config mirrors flags() for the in-process launcher, with streamd's flag
// defaults written out; the tests hold both launchers to the same served
// bytes, so a default that moves in cmd/streamd fails here.
func (s nodeSettings) config() node.Config {
	cfg := node.Config{
		Engine: node.EngineConfig{
			Spec: s.w.spec, TicksPerUnit: s.w.ticksPerUnit, Threshold: 1, Alg: "mo",
			Tilt: s.w.tilt, Shards: s.w.shards,
		},
		Listen: "127.0.0.1:0", IngestListen: "127.0.0.1:0", NodeID: s.id,
		AlertCrit: s.w.alertCrit, AlertHold: 2, ForecastHorizon: 60, ChangeScore: 0.25,
	}
	if s.w.durable {
		cfg.WALDir, cfg.WALSync, cfg.Checkpoint = s.walDir, "interval", s.checkpoint
	}
	return cfg
}

// startNode launches one streamd and waits for both listeners.
func (l launcher) startNode(s nodeSettings, dir string) (p *proc, ingest, api string, err error) {
	if l.binDir != "" {
		p, err = l.startProcess("streamd", "streamd-"+s.id, dir, false, s.flags()...)
		if err != nil {
			return nil, "", "", err
		}
	} else {
		p = newProc("streamd-" + s.id)
		p.pid = os.Getpid()
		ctx, cancel := context.WithCancel(context.Background())
		p.cancel = cancel
		pr, pw := io.Pipe()
		go p.watch(pr)
		go func() {
			if err := node.Run(ctx, s.config(), strings.NewReader(""), pw); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: in-process %s: %v\n", p.name, err)
			}
			pw.Close()
			close(p.done)
		}()
	}
	if ingest, err = p.announced("ingest listening"); err == nil {
		api, err = p.announced("serving http")
	}
	if err != nil {
		p.kill()
		return nil, "", "", err
	}
	return p, ingest, "http://" + api, nil
}

// freeAddr reserves a loopback port by binding port 0 and releasing it;
// the router prints the address it was told, not the one it bound, so it
// cannot be given port 0 itself.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startRouter launches the scatter tier and coordinator over the nodes.
// The feeder writes the record stream to the returned proc's stdin.
func (l launcher) startRouter(w workload, dir string, ingest, apis []string) (*proc, string, error) {
	if l.binDir == "" {
		return startRouterInProcess(w, ingest, apis)
	}
	// Between freeAddr releasing the port and the router binding it, any
	// process of the host may take it; the router then routes but never
	// serves. So the coordinator must answer before the port is trusted,
	// and a lost race is run again on another port.
	var err error
	for try := 0; try < 5; try++ {
		var addr string
		if addr, err = freeAddr(); err != nil {
			return nil, "", err
		}
		var p *proc
		p, err = l.startProcess("regcube-router", "router", dir, true,
			"-spec", w.spec, "-unit", strconv.Itoa(w.ticksPerUnit),
			"-nodes", strings.Join(ingest, ","), "-node-api", strings.Join(apis, ","), "-listen", addr)
		if err != nil {
			return nil, "", err
		}
		if err = answers("http://"+addr+"/healthz", 5*time.Second); err == nil {
			return p, "http://" + addr, nil
		}
		p.kill()
	}
	return nil, "", fmt.Errorf("coordinator never served: %w", err)
}

// answers waits until a GET of the URL gets any HTTP response.
func answers(url string, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startRouterInProcess is cmd/regcube-router's run loop for the smoke
// run: binary stdin routed to the nodes, the coordinator served over the
// gatherer, both ending when the proc is killed.
func startRouterInProcess(w workload, ingest, apis []string) (*proc, string, error) {
	in, err := newInput(w.spec, 1, w.ticksPerUnit, 0, 0) // schema only
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	router, err := cluster.NewRouter(cluster.RouterConfig{Schema: in.schema, Nodes: ingest, TicksPerUnit: w.ticksPerUnit})
	if err != nil {
		cancel()
		return nil, "", err
	}
	gatherer, err := cluster.NewGatherer(cluster.GatherConfig{Schema: in.schema, Endpoints: apis})
	if err != nil {
		cancel()
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, "", err
	}
	coord := serve.New(gatherer, in.schema)
	coord.SetInfo(gatherer.Info)
	// regcube-router's flag defaults; the tests hold both launchers to the
	// same served bytes.
	coord.SetForecastDefaults(serve.ForecastDefaults{Horizon: 60, ChangeScore: 0.25})
	srv := &http.Server{Handler: coord}
	go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed when the proc is killed

	p := newProc("router")
	p.pid, p.cancel = os.Getpid(), cancel
	pr, pw := io.Pipe()
	p.stdin = pw
	go func() {
		defer close(p.done)
		defer srv.Close()
		defer router.Close()
		go func() { <-ctx.Done(); pr.Close() }()
		err := func() error {
			r, err := wire.NewReader(pr)
			if err != nil {
				return err
			}
			var b wire.Batch
			for {
				_, c, isCtrl, err := r.NextAny(&b)
				if errors.Is(err, io.EOF) {
					return router.Flush(ctx)
				}
				if err != nil {
					return err
				}
				if isCtrl {
					err = router.Advance(ctx, c.Unit)
				} else {
					err = router.RouteBatch(ctx, &b)
				}
				if err != nil {
					return err
				}
			}
		}()
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "benchmark: in-process router: %v\n", err)
		}
		// Like the binary, the coordinator outlives its input.
		<-ctx.Done()
	}()
	return p, "http://" + ln.Addr().String(), nil
}

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	return (utime + stime) / 100, nil
}

// procPeakMB returns a process's peak resident set (VmHWM) in MB.
func procPeakMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
