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
	"strings"
	"testing"

	"repro/internal/persist"
)

// TestReplaceFileLeavesNoTemporary: whichever step fails — the write, or
// the rename — the .tmp file is gone and what was at the path is untouched;
// a success replaces it and reports the bytes written.
func TestReplaceFileLeavesNoTemporary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	entries := func() []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	n, err := replaceFile(path, func(w io.Writer) error { _, err := w.Write([]byte("first")); return err })
	if err != nil || n != 5 {
		t.Fatalf("replaceFile = %d, %v", n, err)
	}
	boom := errors.New("boom")
	if _, err := replaceFile(path, func(w io.Writer) error {
		w.Write([]byte("half a docu"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write: err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" || len(entries()) != 1 {
		t.Fatalf("after a failed write the path holds %q among %v", got, entries())
	}

	// A directory in the way makes the rename fail after a good write.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := replaceFile(blocked, func(w io.Writer) error { _, err := w.Write([]byte("doc")); return err }); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := entries(); len(names) != 2 {
		t.Fatalf("after a failed rename the directory holds %v", names)
	}
}

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

// TestRunCheckpointMetricsAndCorruptFile drives a node with a checkpoint
// file and the query API: /metrics carries the checkpoint and GC families
// with the writes counted and the last file's size, and a restart on the
// file with its tail torn off refuses to start with persist.ErrFormat
// naming the offset — it does not panic and does not start empty.
func TestRunCheckpointMetricsAndCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	cfg := Config{
		Engine:     EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 2},
		Checkpoint: path,
	}
	base, feed, ran, out := serveNode(t, cfg)
	if _, err := io.WriteString(feed, risingFeed(10)); err != nil { // closes units 0 and 1
		t.Fatal(err)
	}
	var metrics string
	// One text frame can carry both boundaries, and a batch is followed by
	// one checkpoint however many units it closed.
	eventually(t, "a checkpoint write after unit 1 on /metrics", func() bool {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(body)
		return strings.Contains(metrics, "regcube_snapshot_unit 1\n") && !strings.Contains(metrics, "regcube_checkpoint_writes_total 0\n")
	})
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("regcube_checkpoint_bytes %d\n", len(file)),
		"regcube_checkpoint_nanos_total ",
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
