package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/wire"
)

// TestAnalyzerWritesPersistDocument: the document the analyzer cuts through
// its own buffers is byte for byte persist.WriteCheckpoint of its
// Checkpoint, again on the second cut, and loads back into the same state.
func TestAnalyzerWritesPersistDocument(t *testing.T) {
	d := newDurableUnit(t, 3)
	cp, err := d.a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := persist.WriteCheckpoint(&want, cp); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		var got bytes.Buffer
		if err := d.a.WriteCheckpoint(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("the analyzer's document differs from persist.WriteCheckpoint of its checkpoint")
		}
	}
	fresh, err := EngineConfig{Spec: "D2L2C16", TicksPerUnit: durableTicksPerUnit, Threshold: 1, Tilt: "calendar", Shards: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.LoadCheckpoint(bytes.NewReader(want.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := fresh.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatal("the document does not survive load and rewrite at another shard count")
	}
}

// scrape reads the node's /metrics body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue is the value of an unlabelled family in a /metrics body.
func metricValue(t *testing.T, metrics, name string) int64 {
	t.Helper()
	_, rest, ok := strings.Cut(metrics, "\n"+name+" ")
	line, _, _ := strings.Cut(rest, "\n")
	v, err := strconv.ParseInt(line, 10, 64)
	if !ok || err != nil {
		t.Fatalf("/metrics lacks an integer %s:\n%s", name, metrics)
	}
	return v
}

// TestRunCheckpointMetricsAndCorruptFile drives a node with a checkpoint
// file and the query API: without a WAL every closed unit is cut, /metrics
// carries the checkpoint and GC families with the writes counted and the
// last file's size, and a restart on the file with its tail torn off
// refuses to start with persist.ErrFormat naming the offset — it does not
// panic and does not start empty.
func TestRunCheckpointMetricsAndCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	cfg := Config{
		Engine:     EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 2},
		Checkpoint: path,
	}
	base, feed, ran, out := serveNode(t, cfg)
	var metrics string
	// Each write after the first closes one unit, and the node waits for
	// it to be cut before the next: one checkpoint per closed unit.
	for u := 0; u <= 2; u++ {
		if _, err := io.WriteString(feed, risingTicks(4*u, 4*u+4)); err != nil {
			t.Fatal(err)
		}
		eventually(t, fmt.Sprintf("%d checkpoint writes after unit %d on /metrics", u, u-1), func() bool {
			metrics = scrape(t, base)
			return u == 0 || strings.Contains(metrics, fmt.Sprintf("regcube_snapshot_unit %d\n", u-1)) &&
				strings.Contains(metrics, fmt.Sprintf("regcube_checkpoint_writes_total %d\n", u))
		})
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("regcube_checkpoint_bytes %d\n", len(file)),
		"regcube_checkpoint_nanos_total ",
		"regcube_wal_bytes_since_checkpoint 0\n",
		"regcube_gc_cycles_total ",
		"regcube_gc_pause_nanos_total ",
		// Unit 1 held every one of the feed's 4×4 cells.
		"regcube_cells_active 16\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	feed.Close()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	file, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file[:len(file)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	err = Run(context.Background(), cfg, strings.NewReader(""), &syncWriter{})
	if !errors.Is(err, persist.ErrFormat) || !strings.Contains(err.Error(), "restoring checkpoint") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("restart on a torn checkpoint: %v, want a refusal with ErrFormat and the offset", err)
	}
}

// TestCheckpointDue is the policy's table: nothing is cut before a unit
// has closed since the last cut; then, with a log, a cut is due once the
// log since the last cut reaches the last file's size — at once for the
// first — while a unit a barrier closed, and a node with no log behind its
// file, cut at once.
func TestCheckpointDue(t *testing.T) {
	for _, tc := range []struct {
		name               string
		logSince, lastSize int64
		closed, barrier    bool
		want               bool
	}{
		{"first cut", 120, 0, true, false, true},
		{"first cut, no unit closed yet", 120, 0, false, false, false},
		{"below the threshold", 999, 1000, true, false, false},
		{"at the threshold", 1000, 1000, true, false, true},
		{"past the threshold, no unit closed since", 1300, 1000, false, false, false},
		{"barrier closed a unit below the threshold", 1, 1000, true, true, true},
		{"no WAL, unit closed", -1, 1000, true, false, true},
		{"no WAL, nothing closed", -1, 1000, false, false, false},
	} {
		if got := checkpointDue(tc.logSince, tc.lastSize, tc.closed, tc.barrier); got != tc.want {
			t.Errorf("%s: checkpointDue(%d, %d, %v, %v) = %v", tc.name, tc.logSince, tc.lastSize, tc.closed, tc.barrier, got)
		}
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// TestRunCheckpointPolicy drives a node with a WAL and a checkpoint file
// through 32 units, one binary frame a tick, waiting for each frame to be
// ingested: the node cuts fewer checkpoints than it closes units, and the
// replay debt on /metrics never exceeds the larger of the last file and a
// unit's log, plus one batch (a logged frame is the frame the wire
// carried; here the file outweighs a unit's log from the first cut on).
// Router barriers then close a unit and cut it at once. A graceful stop
// still leaves nothing to replay.
func TestRunCheckpointPolicy(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Engine:     EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 2},
		Checkpoint: filepath.Join(dir, "state.ckpt"),
		WALDir:     filepath.Join(dir, "wal"),
		WALSync:    "off",
	}
	base, feed, ran, out := serveNode(t, cfg)
	cw := &countingWriter{w: feed}
	enc, err := wire.NewWriter(cw, 2)
	if err != nil {
		t.Fatal(err)
	}
	const units = 32
	var sent, maxFrame, writes int64
	// The first tick of unit 32 closes unit 31.
	for tick := int64(0); tick <= units*4; tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if err := enc.Append(tick, []int32{a, b}, float64(tick)*float64(a+2*b+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := cw.n
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		maxFrame, sent = max(maxFrame, cw.n-before), sent+16
		var info query.InfoResponse
		eventually(t, fmt.Sprintf("record %d ingested", sent), func() bool {
			return getJSON(base+"/v1/info", &info) && info.WALSeq == sent
		})
		// The file's size is read before the debt, and a cut clears the
		// debt before it publishes its size: a cut landing mid-scrape
		// cannot pair a new debt with an old size.
		metrics := scrape(t, base)
		writes = metricValue(t, metrics, "regcube_checkpoint_writes_total")
		size := metricValue(t, metrics, "regcube_checkpoint_bytes")
		debt := metricValue(t, metrics, "regcube_wal_bytes_since_checkpoint")
		if bound := max(size, 4*maxFrame) + maxFrame; writes > 0 && debt > bound {
			t.Fatalf("tick %d: %d WAL bytes since the last %d-byte cut, over the %d-byte bound", tick, debt, size, bound)
		}
	}
	eventually(t, "unit 31 published", func() bool {
		var info query.InfoResponse
		return getJSON(base+"/v1/info", &info) && info.SnapshotUnit == units-1
	})
	t.Logf("%d checkpoint writes over %d closed units; the largest batch is %d bytes", writes, units, maxFrame)
	if writes < 2 || writes >= units {
		t.Fatalf("%d checkpoint writes over %d closed units, want more than one and fewer than one a unit", writes, units)
	}

	// A barrier that closes the open unit is cut at once, however little
	// log it follows, and the cut clears the debt. One that closes nothing
	// is not cut, nor is a batch after it that closes nothing.
	if err := enc.WriteControl(wire.Control{Op: wire.ControlAdvance, Unit: units + 1}); err != nil {
		t.Fatal(err)
	}
	var metrics string
	eventually(t, "the barrier's cut", func() bool {
		metrics = scrape(t, base)
		return metricValue(t, metrics, "regcube_checkpoint_writes_total") == writes+1
	})
	if debt := metricValue(t, metrics, "regcube_wal_bytes_since_checkpoint"); debt != 0 {
		t.Fatalf("%d WAL bytes since a cut no record followed", debt)
	}
	if err := enc.WriteControl(wire.Control{Op: wire.ControlAdvance, Unit: units + 1}); err != nil {
		t.Fatal(err)
	}
	tick := int64(units+1) * 4
	for a := int32(0); a < 4; a++ {
		if err := enc.Append(tick, []int32{a, 0}, float64(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	sent += 4
	eventually(t, "the batch after the barriers ingested", func() bool {
		var info query.InfoResponse
		return getJSON(base+"/v1/info", &info) && info.WALSeq == sent && info.SnapshotUnit == units
	})
	if got := metricValue(t, scrape(t, base), "regcube_checkpoint_writes_total"); got != writes+1 {
		t.Fatalf("%d checkpoint writes after a barrier closed unit %d, want %d", got, units, writes+1)
	}
	feed.Close()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var restarted syncWriter
	if err := Run(context.Background(), cfg, strings.NewReader(""), &restarted); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(restarted.String(), "# wal: replayed") {
		t.Fatalf("restart after a graceful stop replayed the log:\n%s", restarted.String())
	}
}
