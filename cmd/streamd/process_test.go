package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/query"
)

// The process tests run the built binaries — streamd, datagen, regcube
// and regcube-router — as real processes, wired by pipes and loopback
// listeners on port 0 whose addresses they learn from the binaries'
// banners. Each test owns its temporary directory, so any one
// runs alone under -run and in any order under -shuffle.

// binDir holds the binaries TestMain builds once per run of this package.
var binDir string

// processWait bounds every wait on a process: a banner, an HTTP answer,
// an exit. A wait that runs out fails the test instead of hanging it.
const processWait = 30 * time.Second

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "streamd-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/streamd", "repro/cmd/datagen", "repro/cmd/regcube", "repro/cmd/regcube-router")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building the process-test binaries: %v\n", err)
	} else {
		binDir = dir
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one running binary. Its stderr, and its stdout unless start was
// given another writer, collect in out.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  syncBuffer
	done chan struct{}
	err  error // Wait's result, once done is closed
}

// start launches the named binary; the test's cleanup kills it if it is
// still running. A pipe end passed as stdin or stdout is the child's from
// then on: start closes the test's copy, so the other end sees the child
// exit.
func start(t *testing.T, stdin, stdout *os.File, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(filepath.Join(binDir, name), args...), done: make(chan struct{})}
	p.cmd.Stdin, p.cmd.Stdout, p.cmd.Stderr = stdin, stdout, &p.out
	if stdout == nil {
		p.cmd.Stdout = &p.out
	}
	err := p.cmd.Start()
	for _, f := range []*os.File{stdin, stdout} {
		if f != nil {
			f.Close()
		}
	}
	if err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
	})
	return p
}

// pipe returns an OS pipe.
func pipe(t *testing.T) (r, w *os.File) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	return r, w
}

// tail is the end of the proc's output, for failure messages.
func (p *proc) tail() string {
	s := p.out.String()
	return s[max(0, len(s)-4096):]
}

// await polls the proc's output until re matches and returns the match;
// the proc exiting first fails the test.
func (p *proc) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	var m []string
	poll(t, fmt.Sprintf("%s to print %q", p.name, re), func() bool {
		if m = re.FindStringSubmatch(p.out.String()); m != nil {
			return true
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited (%v) before printing %q:\n%s", p.name, p.err, re, p.tail())
		default:
		}
		return false
	})
	return m
}

// exit waits for the proc to end and returns its Wait error.
func (p *proc) exit(t *testing.T) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(processWait):
		t.Fatalf("%s did not exit:\n%s", p.name, p.tail())
		return nil
	}
}

// interrupt sends a real SIGINT and requires a clean exit.
func (p *proc) interrupt(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := p.exit(t); err != nil {
		t.Fatalf("%s exited %v after SIGINT:\n%s", p.name, err, p.tail())
	}
}

// runBin runs the named binary to its end on stdin (nil: none) and
// returns its stdout; a non-zero exit fails the test.
func runBin(t *testing.T, stdin []byte, name string, args ...string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), processWait)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, name), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// poll retries cond every few milliseconds until it holds; a wait past
// processWait fails the test.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(processWait); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// get is one GET of url: its body, or an error unless it answered 200.
func get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, err
}

// getJSON GETs url until it answers 200 and decodes the body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	var body []byte
	poll(t, "GET "+url, func() bool {
		var err error
		body, err = get(url)
		return err == nil
	})
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
}

var (
	ingestRE = regexp.MustCompile(`# ingest listening on (\S+)`)
	coordRE  = regexp.MustCompile(`# coordinator listening on (\S+) `)
	routedRE = regexp.MustCompile(`(?m)^# routed (\d+) records`)
	tcpRE    = regexp.MustCompile(`(?m)^regcube_ingest_records_total\{format="binary",source="tcp"\} (\d+)$`)
)

// probeSDK drives the query API through the Go client SDK (repro/client)
// once the server at base has closed a unit: one POST /v1/query batch of
// summary, exceptions, alerts, the frame of o-cell (0,0) and a slice of a
// dimension that does not exist. Each valid request must come back as its
// typed response, the summary must describe the batch's unit, and the
// invalid one must fail with ErrInvalid. A young cell's frame can lag a
// unit on a tilted engine, so the batch is resent while a result is
// ErrNotFound.
func probeSDK(t *testing.T, base string) {
	t.Helper()
	c, err := client.New(client.WithEndpoints(base), client.WithTimeout(5*time.Second),
		client.WithRetries(3), client.WithRetryBackoff(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), processWait)
	defer cancel()
	poll(t, "a closed unit on /healthz", func() bool {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatalf("health: %v", err)
		}
		return h.Serving && h.UnitsDone > 0
	})
	var reply *client.BatchReply
	poll(t, "a batch without ErrNotFound", func() bool {
		reply, err = c.Batch(ctx,
			client.SummaryRequest{},
			client.ExceptionsRequest{K: 5},
			client.AlertsRequest{},
			client.FrameRequest{CellRef: client.OCell(0, 0)},
			client.SliceRequest{Dim: 99, Member: 0})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		return !slices.ContainsFunc(reply.Results[:4], func(r client.Result) bool { return errors.Is(r.Err, client.ErrNotFound) })
	})
	for i, r := range reply.Results[:4] {
		if r.Err != nil {
			t.Fatalf("batch result %d: %v", i, r.Err)
		}
	}
	sum, okSum := reply.Results[0].Response.(*client.SummaryResponse)
	exc, okExc := reply.Results[1].Response.(*client.CellsResponse)
	alerts, okAlerts := reply.Results[2].Response.(*client.AlertsResponse)
	frame, okFrame := reply.Results[3].Response.(*client.FrameResponse)
	if !okSum || !okExc || !okAlerts || !okFrame {
		t.Fatalf("batch results are not the typed responses: %#v", reply.Results[:4])
	}
	if sum.Unit != reply.Unit {
		t.Fatalf("summary unit %d != batch unit %d (batch not unit-consistent)", sum.Unit, reply.Unit)
	}
	if err := reply.Results[4].Err; !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("invalid slice sub-request returned %v, want ErrInvalid", err)
	}
	t.Logf("unit %d: %d exceptions (top %d listed), %d alerts, frame %d levels (%d slots)",
		reply.Unit, exc.Count, len(exc.Cells), len(alerts.Alerts), len(frame.Levels), frame.SlotsInUse)
}

// queryLoad issues summary, exceptions and alerts against base through
// the client SDK every 20 ms, as a dashboard beside the ingest would,
// until the test ends. It returns the count of calls that succeeded.
func queryLoad(t *testing.T, base string) *atomic.Int64 {
	c, err := client.New(client.WithEndpoints(base), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	ok := new(atomic.Int64)
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if _, err := c.Summary(ctx); err == nil {
				ok.Add(1)
			}
			if _, err := c.Exceptions(ctx, client.ExceptionsRequest{K: 5}); err == nil {
				ok.Add(1)
			}
			if _, err := c.Alerts(ctx); err == nil {
				ok.Add(1)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return ok
}

// reportSHA256 pins the bytes of one default engine's report: the eq
// leg's input is gap-free (every cell reports every tick), so the report
// may not move. It is the digest the last build that kept a flat per-unit
// history beside the frames printed.
const reportSHA256 = "3177aa80696fe65de8f9cde0fcb17625f6c12ba47f57efd7fe717f3d299de676"

// engineArgs are the streamd engine flags every leg but the WAL legs runs.
func engineArgs(shards int, extra ...string) []string {
	return append([]string{"-spec", "D2L2C4", "-unit", "15", "-threshold", "0.2", "-shards", strconv.Itoa(shards)}, extra...)
}

// TestProcesses holds the four bitwise promises — sharded == single,
// binary == text, cluster == one engine, a resumed file == the
// uninterrupted run — and the signal path across real processes.
func TestProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("process test")
	}

	// serve: a paced datagen feeds streamd -listen while queryLoad reads
	// it, the client SDK probe passes against it, and a real SIGINT
	// takes the signal.NotifyContext path: exit 0 after the signal banner,
	// the summary line and the checkpoint.
	t.Run("serve", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "state.ckpt")
		r, w := pipe(t)
		streamd := start(t, r, nil, "streamd", engineArgs(4, "-tilt", "calendar", "-listen", "127.0.0.1:0", "-checkpoint", ckpt)...)
		base := "http://" + streamd.await(t, listenRE)[1]
		// Enough ticks to outlive the probe on a loaded box: the SIGINT
		// ends the run long before the stream would.
		start(t, nil, w, "datagen", "-spec", "D2L2C4T2K", "-stream", "-ticks", "60000", "-pace", "5ms")
		load := queryLoad(t, base)
		probeSDK(t, base)
		poll(t, "a query of the load to succeed", func() bool { return load.Load() > 0 })
		streamd.interrupt(t)
		// The banner, then the final partial unit's report, then the summary.
		_, flushed, ok := strings.Cut(streamd.out.String(), "# signal: flushing final unit\n")
		if !ok || !regexp.MustCompile(`(?ms)^\[unit \d+\] .*^# \d+ records, \d+ units$`).MatchString(flushed) {
			t.Fatalf("no signal banner, final unit and summary:\n%s", streamd.tail())
		}
		if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
			t.Fatalf("checkpoint not written: %v", err)
		}
	})

	// eq: one seeded stream, text and binary, at 1 and 4 shards, and a
	// legacy per-shard file resumed over its tail: every checkpoint and
	// report compared byte for byte.
	t.Run("eq", func(t *testing.T) {
		dir := t.TempDir()
		genArgs := []string{"-spec", "D2L2C4T2K", "-stream", "-ticks", "120", "-seed", "7"}
		text := runBin(t, nil, "datagen", genArgs...)
		binary := runBin(t, nil, "datagen", append(genArgs, "-format=binary")...)
		// streamd runs one input to its end on a fresh checkpoint path and
		// returns its report and checkpoint.
		streamd := func(name string, in []byte, shards int) (report, cp []byte) {
			path := filepath.Join(dir, name+".ckpt")
			report = runBin(t, in, "streamd", engineArgs(shards, "-checkpoint", path)...)
			cp, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return report, cp
		}
		report4, text4 := streamd("text-s4", text, 4)
		if _, bin4 := streamd("bin-s4", binary, 4); !bytes.Equal(bin4, text4) {
			t.Fatal("binary-fed checkpoint differs from text-fed")
		}
		report1, text1 := streamd("text-s1", text, 1)
		if !bytes.Equal(text1, text4) {
			t.Fatal("-shards 1 and -shards 4 checkpoints differ")
		}
		if !bytes.Equal(report1, report4) {
			t.Fatal("-shards 1 and -shards 4 reports differ")
		}
		if sum := sha256.Sum256(report1); hex.EncodeToString(sum[:]) != reportSHA256 {
			t.Fatalf("default-engine report drifted from the recorded one: sha256 %x", sum)
		}

		// The fixture is a version-2 (one checkpoint per shard) file, written
		// by the last build that had a per-shard writer: -shards 4 over ticks
		// 0-104 of this stream (seven whole units). Resumed over the rest it
		// must land, at either shard count, on the uninterrupted checkpoint.
		fixture, err := os.ReadFile(filepath.Join("..", "..", "internal", "persist", "testdata", "legacy-v2-shards4.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(fixture, []byte(`"version":2,"shards"`)) {
			t.Fatal("the legacy fixture is not a per-shard v2 file")
		}
		var tail []byte
		for _, line := range bytes.SplitAfter(text, []byte("\n")) {
			tick, _, _ := bytes.Cut(line, []byte(","))
			if n, err := strconv.Atoi(string(tick)); err == nil && n >= 105 {
				tail = append(tail, line...)
			}
		}
		for _, shards := range []int{1, 4} {
			path := filepath.Join(dir, fmt.Sprintf("legacy-s%d.json", shards))
			if err := os.WriteFile(path, fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			report := runBin(t, tail, "streamd", engineArgs(shards, "-checkpoint", path)...)
			if !bytes.Contains(report, []byte("# resumed at unit 7 (7 units done)\n")) {
				t.Fatalf("legacy file did not resume at %d shards:\n%.400s", shards, report)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, text1) {
				t.Fatalf("legacy file resumed at %d shards diverges from the uninterrupted run (err %v)", shards, err)
			}
		}
	})

	// cluster: four streamd ingest nodes behind regcube-router's scatter
	// tier and coordinator. The coordinator answers while the stream is
	// still open, the nodes ingest over TCP only, every process stops on
	// SIGINT, and the merged node checkpoints are one engine's bytes.
	t.Run("cluster", func(t *testing.T) {
		dir := t.TempDir()
		var nodes []*proc
		var ingest, apis, ckpts []string
		for i := range 4 {
			ckpt := filepath.Join(dir, fmt.Sprintf("node%d.ckpt", i))
			n := start(t, nil, nil, "streamd", engineArgs(1, "-ingest-listen", "127.0.0.1:0", "-listen", "127.0.0.1:0",
				"-node-id", fmt.Sprintf("node-%d", i), "-checkpoint", ckpt)...)
			apis = append(apis, "http://"+n.await(t, listenRE)[1])
			ingest = append(ingest, n.await(t, ingestRE)[1])
			nodes, ckpts = append(nodes, n), append(ckpts, ckpt)
		}
		stream := runBin(t, nil, "datagen", "-spec", "D2L2C4T2K", "-stream", "-ticks", "1200", "-seed", "7", "-format=binary")
		r, w := pipe(t)
		router := start(t, r, nil, "regcube-router", "-spec", "D2L2C4", "-unit", "15",
			"-nodes", strings.Join(ingest, ","), "-node-api", strings.Join(apis, ","),
			"-listen", "127.0.0.1:0", "-node-id", "coord")
		coord := "http://" + router.await(t, coordRE)[1]
		// The whole stream goes in but stdin stays open: the router has not
		// seen its end, and every node's last unit is still open.
		if _, err := w.Write(stream); err != nil {
			t.Fatalf("feeding the router: %v\n%s", err, router.tail())
		}
		poll(t, "the coordinator to serve a completed unit", func() bool {
			var h struct{ UnitsDone int64 }
			body, err := get(coord + "/healthz")
			return err == nil && json.Unmarshal(body, &h) == nil && h.UnitsDone > 0
		})

		// fields GETs a coordinator path and returns its top-level members.
		fields := func(path string) map[string]json.RawMessage {
			var f map[string]json.RawMessage
			getJSON(t, coord+path, &f)
			return f
		}
		isArray := func(raw json.RawMessage) bool { return bytes.HasPrefix(raw, []byte("[")) }
		if f := fields("/v1/exceptions?k=5"); !isArray(f["cells"]) {
			t.Fatalf("/v1/exceptions: no cells array: %s", f)
		}
		if f := fields("/v1/alerts"); !isArray(f["alerts"]) {
			t.Fatalf("/v1/alerts: no alerts array: %s", f)
		}
		if f := fields("/v1/forecast?members=0,0&horizon=8&threshold=1000"); f["predicted"] == nil {
			t.Fatalf("/v1/forecast: no prediction: %s", f)
		}
		if f := fields("/v1/changes"); f["cells"] == nil {
			t.Fatalf("/v1/changes: no cells: %s", f)
		}
		var info query.InfoResponse
		getJSON(t, coord+"/v1/info", &info)
		if info.Role != "coordinator" || len(info.Nodes) != 4 || info.Nodes[3].Info == nil || info.Nodes[3].Info.NodeID != "node-3" ||
			slices.ContainsFunc(info.Nodes, func(n query.NodeStatus) bool { return !n.Reachable }) {
			t.Fatalf("/v1/info: want a coordinator over 4 reachable nodes, node-3 last: %+v", info)
		}

		// Ingest accounting: records arrive over TCP, never stdin. The
		// partitioner may leave a node cold on a small schema, so count the
		// busy nodes rather than pinning one.
		tcpRecords := func(api string) (n float64, body []byte) {
			body, err := get(api + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			if m := tcpRE.FindSubmatch(body); m != nil {
				n, _ = strconv.ParseFloat(string(m[1]), 64)
			}
			return n, body
		}
		busy := 0
		for i, api := range apis {
			n, body := tcpRecords(api)
			if n > 0 {
				busy++
			}
			for _, line := range strings.Split(string(body), "\n") {
				if strings.Contains(line, `source="stdin"}`) && !strings.HasSuffix(line, "} 0") {
					t.Fatalf("node %d counted stdin records on a TCP-only run: %s", i, line)
				}
			}
		}
		if busy < 2 {
			t.Fatalf("only %d nodes counted tcp-sourced records", busy)
		}

		// End the stream; once every routed record has reached a node, take
		// the cluster down.
		w.Close()
		routed, _ := strconv.ParseFloat(router.await(t, routedRE)[1], 64)
		poll(t, fmt.Sprintf("the nodes to receive all %v routed records", routed), func() bool {
			sum := 0.0
			for _, api := range apis {
				n, _ := tcpRecords(api)
				sum += n
			}
			return sum == routed
		})
		router.interrupt(t)
		for _, n := range nodes {
			n.interrupt(t)
		}

		single := filepath.Join(dir, "single.ckpt")
		runBin(t, stream, "streamd", engineArgs(1, "-checkpoint", single)...)
		merged := filepath.Join(dir, "merged.ckpt")
		runBin(t, nil, "regcube", append([]string{"merge", "-o", merged}, ckpts...)...)
		want, err := os.ReadFile(single)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(merged); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("merged 4-node checkpoint (%d bytes, err %v) differs from the single engine's (%d bytes)", len(got), err, len(want))
		}
	})
}
