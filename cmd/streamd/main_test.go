package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func records(lines ...string) *strings.Reader {
	return strings.NewReader(strings.Join(lines, "\n") + "\n")
}

// runOpts drives run with defaults matching the old positional signature.
func runOpts(spec string, unit int, threshold float64, checkpoint string, shards int, in io.Reader, out io.Writer) error {
	return run(context.Background(), options{
		spec: spec, unit: unit, threshold: threshold,
		checkpoint: checkpoint, shards: shards,
	}, in, out)
}

func TestRunEndToEnd(t *testing.T) {
	in := records(
		"0,0,1.0",
		"1,0,2.0",
		"2,0,3.0",
		"3,0,4.0", // unit 0 complete (unit=4)
		"4,0,5.0",
	)
	var out bytes.Buffer
	if err := runOpts("D1L2C2", 4, 0.5, "", 1, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "[unit 0]") {
		t.Fatalf("missing unit 0 report: %q", got)
	}
	if !strings.Contains(got, "ALERT") {
		t.Fatalf("slope 1 at threshold 0.5 must alert: %q", got)
	}
	if !strings.Contains(got, "# 5 records, 2 units") {
		t.Fatalf("missing summary: %q", got)
	}
}

// The sharded engine prints the same reports as the single engine for the
// same stream.
func TestRunShardedMatchesSingle(t *testing.T) {
	lines := []string{
		"0,0,0,1.0", "0,1,2,4.0", "1,0,0,2.0", "1,3,1,1.0",
		"2,0,0,3.0", "2,1,2,2.0", "3,0,0,4.0", "3,3,1,9.0",
		"4,0,0,5.0", "4,2,3,1.0", "5,1,2,6.0",
	}
	var single, sharded bytes.Buffer
	if err := runOpts("D2L2C2", 4, 0.5, "", 1, records(lines...), &single); err != nil {
		t.Fatal(err)
	}
	if err := runOpts("D2L2C2", 4, 0.5, "", 4, records(lines...), &sharded); err != nil {
		t.Fatal(err)
	}
	// Alerts print sorted only in sharded mode, so compare line sets.
	norm := func(s string) string {
		ls := strings.Split(strings.TrimSpace(s), "\n")
		sort.Strings(ls)
		return strings.Join(ls, "\n")
	}
	if norm(single.String()) != norm(sharded.String()) {
		t.Fatalf("sharded output differs:\n%s\nvs single:\n%s", sharded.String(), single.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runOpts("garbage", 4, 1, "", 1, records("0,0,1"), &out); err == nil {
		t.Fatal("expected spec error")
	}
	if err := runOpts("D1L2C2", 4, 1, "", 0, records("0,0,1"), &out); err == nil {
		t.Fatal("expected shard-count error")
	}
	if err := runOpts("D1L2C2", 4, 1, "", 1, records("x,0,1"), &out); err == nil {
		t.Fatal("expected tick parse error")
	}
	if err := runOpts("D1L2C2", 4, 1, "", 1, records("0,x,1"), &out); err == nil {
		t.Fatal("expected member parse error")
	}
	if err := runOpts("D1L2C2", 4, 1, "", 1, records("0,0,x"), &out); err == nil {
		t.Fatal("expected value parse error")
	}
	if err := runOpts("D1L2C2", 4, 1, "", 1, records("0,0"), &out); err == nil {
		t.Fatal("expected column count error")
	}
}

func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "state.json")

	// First run: 6 ticks of unit size 4 → one closed unit + checkpoint.
	var out1 bytes.Buffer
	in1 := records("0,0,1", "1,0,2", "2,0,3", "3,0,4", "4,0,5", "5,0,6")
	if err := runOpts("D1L2C2", 4, 99, cpPath, 1, in1, &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Second run resumes from the checkpoint (unit 2 open after flush).
	var out2 bytes.Buffer
	in2 := records("8,0,1", "9,0,2")
	if err := runOpts("D1L2C2", 4, 99, cpPath, 1, in2, &out2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "# resumed at unit") {
		t.Fatalf("missing resume banner: %q", out2.String())
	}
}

// A checkpoint file does not depend on the shard count that wrote it, and
// resumes at any other.
func TestRunCheckpointAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	six := func() io.Reader { return records("0,0,1", "1,0,2", "2,0,3", "3,0,4", "4,0,5", "5,0,6") }
	files := make(map[int][]byte)
	for _, shards := range []int{1, 4} {
		cpPath := filepath.Join(dir, fmt.Sprintf("shards%d.json", shards))
		var out bytes.Buffer
		if err := runOpts("D1L2C2", 4, 99, cpPath, shards, six(), &out); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(cpPath)
		if err != nil {
			t.Fatal(err)
		}
		files[shards] = raw
		// Written at one count, resumed at the other.
		out.Reset()
		if err := runOpts("D1L2C2", 4, 99, cpPath, 5-shards, records("8,0,1", "9,0,2"), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "# resumed at unit 2") {
			t.Fatalf("file written at %d shards failed to resume at %d: %q", shards, 5-shards, out.String())
		}
	}
	if !bytes.Equal(files[1], files[4]) {
		t.Fatalf("-shards 1 wrote\n%s\n-shards 4 wrote\n%s", files[1], files[4])
	}
}

// syncBuffer lets the test read run's output while run keeps writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`# serving http on (\S+)`)

// startServing launches run with -listen on an ephemeral port and
// returns the base URL, the stdin pipe to feed records through, and the
// channel run's error arrives on when it exits.
func startServing(t *testing.T, ctx context.Context, shards int, out *syncBuffer) (string, *io.PipeWriter, chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			spec: "D1L2C2", unit: 4, threshold: 0.5,
			shards: shards, listen: "127.0.0.1:0",
		}, pr, out)
	}()
	var addr string
	for i := 0; i < 200; i++ {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server address never printed: %q", out.String())
	}
	return "http://" + addr, pw, done
}

// With -listen, completed units are queryable over HTTP while the stream
// is still open, and EOF shuts the listener down.
func TestRunServeEndpoints(t *testing.T) {
	var out syncBuffer
	url, pw, done := startServing(t, context.Background(), 2, &out)

	for tick := 0; tick < 9; tick++ { // closes units 0 and 1
		for m := 0; m < 4; m++ {
			fmt.Fprintf(pw, "%d,%d,%g\n", tick, m, float64(tick*(m+1)))
		}
	}
	get := func(path string) map[string]any {
		t.Helper()
		var resp *http.Response
		var err error
		for i := 0; i < 100; i++ { // the pipe delivers asynchronously
			resp, err = http.Get(url + path)
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
			if resp != nil {
				resp.Body.Close()
				resp = nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		if resp == nil {
			t.Fatalf("GET %s never succeeded: %v", path, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	health := get("/healthz")
	if health["serving"] != true {
		t.Fatalf("healthz = %v", health)
	}
	ex := get("/v1/exceptions?k=5")
	if ex["cells"] == nil {
		t.Fatalf("exceptions = %v", ex)
	}
	al := get("/v1/alerts")
	if al["alerts"] == nil {
		t.Fatalf("alerts = %v", al)
	}

	pw.Close() // EOF: run flushes and exits, shutting down the server
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "records,") {
		t.Fatalf("missing final summary: %q", out.String())
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still up after shutdown")
	}
}

// A signal mid-stream flushes the final partial unit, checkpoints, and
// exits cleanly — the stdin pipe is still open.
func TestRunSignalGracefulFlush(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	_, pw, done := startServing(t, ctx, 1, &out)
	defer pw.Close()

	for tick := 0; tick < 3; tick++ { // partial unit 0 only
		fmt.Fprintf(pw, "%d,0,%g\n", tick, float64(tick+1))
	}
	// Wait until the records are through the pipe and ingested, then
	// deliver the "signal".
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	got := out.String()
	if !strings.Contains(got, "# signal: flushing final unit") {
		t.Fatalf("missing signal banner: %q", got)
	}
	if !strings.Contains(got, "[unit 0]") {
		t.Fatalf("final partial unit not flushed: %q", got)
	}
	if !strings.Contains(got, "# 3 records, 1 units") {
		t.Fatalf("missing summary: %q", got)
	}
}

// A checkpoint resumes under any -tilt value: the same chain restores its
// frames exactly, another chain — multi-level (this used to fail on the
// level mismatch) or the default — reseeds them, and a default-chain file
// resumes into a -tilt run.
func TestRunTiltCheckpointCompat(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "tilt.json")
	six := func() io.Reader { return records("0,0,1", "1,0,2", "2,0,3", "3,0,4", "4,0,5", "5,0,6") }

	var out bytes.Buffer
	if err := run(context.Background(), options{
		spec: "D1L2C2", unit: 4, threshold: 99,
		checkpoint: cpPath, shards: 1, tilt: "calendar",
	}, six(), &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("RCCP\x05")) {
		t.Fatalf("tilted run wrote %.16q, want a version 5 checkpoint document", raw)
	}
	// Each resume below saves its own checkpoint over the file; start every
	// one from the calendar-chain original.
	for _, c := range []struct {
		name, tilt string
		shards     int
	}{{"same chain", "calendar", 2}, {"another chain", "log4x8", 2}, {"default chain", "", 1}} {
		if err := os.WriteFile(cpPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := run(context.Background(), options{
			spec: "D1L2C2", unit: 4, threshold: 99,
			checkpoint: cpPath, shards: c.shards, tilt: c.tilt,
		}, records("8,0,1", "9,0,2"), &out); err != nil {
			t.Fatalf("calendar file → %s: %v", c.name, err)
		}
		if !strings.Contains(out.String(), "# resumed at unit 2 (2 units done)") {
			t.Fatalf("calendar file → %s resume failed: %q", c.name, out.String())
		}
	}
	// Default-chain file → -tilt run reseeds frames.
	flatPath := filepath.Join(dir, "flat.json")
	out.Reset()
	if err := runOpts("D1L2C2", 4, 99, flatPath, 1, six(), &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), options{
		spec: "D1L2C2", unit: 4, threshold: 99,
		checkpoint: flatPath, shards: 1, tilt: "calendar",
	}, records("8,0,1", "9,0,2"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# resumed at unit") {
		t.Fatalf("default→tilted resume failed: %q", out.String())
	}
}
