package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/wal"
	"repro/internal/wire"
)

// replayFeed is a seeded D2L2C4 stream cut into batches of 1 to 40
// records, batch boundaries falling anywhere in a tick or a unit: each
// tick a handful of distinct cells read a value on a cell-specific slope,
// steep enough that units raise alerts with supporters.
func replayFeed(seed int64, ticks int) []*wire.Batch {
	rng := rand.New(rand.NewSource(seed))
	slopes := make([]float64, 16*16)
	for i := range slopes {
		slopes[i] = rng.NormFloat64()
	}
	var batches []*wire.Batch
	b := &wire.Batch{}
	b.Reset(2)
	size := 1 + rng.Intn(40)
	for tick := int64(0); tick < int64(ticks); tick++ {
		for _, cell := range rng.Perm(len(slopes))[:6] {
			value := 10 + slopes[cell]*float64(tick%15) + rng.NormFloat64()*0.1
			b.Append(tick, []int32{int32(cell % 16), int32(cell / 16)}, value)
			if b.Len() == size {
				batches = append(batches, b)
				b = &wire.Batch{}
				b.Reset(2)
				size = 1 + rng.Intn(40)
			}
		}
	}
	if b.Len() > 0 {
		batches = append(batches, b)
	}
	return batches
}

var replayEngine = node.EngineConfig{Spec: "D2L2C4", TicksPerUnit: 15, Threshold: 0.3, Shards: 1}

func replayArgs(dir string, shards int, extra ...string) []string {
	return append([]string{"-wal-dir", dir, "-spec", replayEngine.Spec, "-unit", "15",
		"-threshold", "0.3", "-shards", fmt.Sprint(shards)}, extra...)
}

// engineCheckpoint builds an engine at shards, hands it to feed, flushes,
// stamps end and returns the checkpoint bytes.
func engineCheckpoint(t *testing.T, shards int, end int64, feed func(*node.Analyzer) error) []byte {
	t.Helper()
	cfg := replayEngine
	cfg.Shards = shards
	a, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := feed(a); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWALSeq(end); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesLive: `regcube replay` over a multi-segment log is the
// live run it re-enacts — its checkpoint is the bytes of an engine fed the
// same batches through IngestBatch, at one shard and at two; -from inside
// a frame delivers exactly the records from there on; and its report is
// the node's report, line for line.
func TestReplayMatchesLive(t *testing.T) {
	batches := replayFeed(33, 120)
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.AppendColumnar(b); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Seq()
	if len(l.Segments()) < 3 {
		t.Fatalf("the log has %d segments, want several", len(l.Segments()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()

	for _, shards := range []int{1, 2} {
		want := engineCheckpoint(t, shards, end, func(a *node.Analyzer) error {
			for _, b := range batches {
				if _, err := a.IngestBatch(b); err != nil {
					return err
				}
			}
			return nil
		})
		path := filepath.Join(scratch, fmt.Sprintf("s%d.ckpt", shards))
		var out bytes.Buffer
		if err := runReplay(replayArgs(dir, shards, "-quiet", "-checkpoint", path), &out); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: replay checkpoint (%d bytes, err %v) differs from the live engine's (%d bytes)",
				shards, len(got), err, len(want))
		}
		if line := fmt.Sprintf("# replayed %d records (log end %d)", end, end); !strings.Contains(out.String(), line) {
			t.Fatalf("shards=%d: summary %q, want %q", shards, out.String(), line)
		}
		// The what-if checkpoint is a real checkpoint: a node resumes from it.
		cfg := replayEngine
		cfg.Shards = shards
		out.Reset()
		if err := node.Run(context.Background(), node.Config{Engine: cfg, Checkpoint: path}, strings.NewReader(""), &out); err != nil ||
			!strings.Contains(out.String(), "# resumed at unit") {
			t.Fatalf("shards=%d: a node on the replay's checkpoint: %v\n%s", shards, err, out.String())
		}
	}

	// -from a record strictly inside a frame halfway through the log,
	// segments past the first.
	from := int64(0)
	for _, b := range batches {
		if from >= end/2 && b.Len() > 1 {
			from += int64(b.Len() / 2)
			break
		}
		from += int64(b.Len())
	}
	want := engineCheckpoint(t, 1, end, func(a *node.Analyzer) error {
		seq := int64(0)
		for _, b := range batches {
			for i, tick := range b.Ticks {
				if seq++; seq <= from {
					continue
				}
				if _, err := a.Ingest([]int32{b.Cols[0][i], b.Cols[1][i]}, tick, b.Values[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	path := filepath.Join(scratch, "from.ckpt")
	var out bytes.Buffer
	if err := runReplay(replayArgs(dir, 1, "-quiet", "-from", fmt.Sprint(from), "-checkpoint", path), &out); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("-from %d: replay checkpoint (%d bytes, err %v) differs from the suffix reference (%d bytes)",
			from, len(got), err, len(want))
	}
	if line := fmt.Sprintf("# replayed %d records (log end %d)", end-from, end); !strings.Contains(out.String(), line) {
		t.Fatalf("-from %d: summary %q, want %q", from, out.String(), line)
	}

	// The report: the node fed the same batches as a binary stream prints
	// the same unit lines, supporters included.
	stream := wire.EncodeHeader(nil, 2)
	for _, b := range batches {
		stream = wire.EncodeFrame(stream, wire.AppendBatch(nil, b))
	}
	var live bytes.Buffer
	if err := node.Run(context.Background(), node.Config{Engine: replayEngine}, bytes.NewReader(stream), &live); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runReplay(replayArgs(dir, 2), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live.String(), "    supporter ") {
		t.Fatalf("the feed raises no supporters; the report leg tests nothing:\n%.400s", live.String())
	}
	if got, want := unitLines(out.String()), unitLines(live.String()); got != want {
		t.Fatalf("replay report differs from the node's (%d vs %d bytes); first lines:\n%.400s\nwant\n%.400s",
			len(got), len(want), got, want)
	}
}

// unitLines drops the "#" banner and summary lines, which differ between
// the node and the replay by design.
func unitLines(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "#") {
			b.WriteString(line)
		}
	}
	return b.String()
}
