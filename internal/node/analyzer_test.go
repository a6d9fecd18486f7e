package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestEngineConfigAlgIsMOOnly pins the one value EngineConfig.Alg has left:
// "" and "mo" build the same engine — their checkpoints after the same
// input are equal byte for byte — and any other name is refused.
func TestEngineConfigAlgIsMOOnly(t *testing.T) {
	var b wire.Batch
	b.Reset(2)
	for tick := int64(0); tick < 10; tick++ {
		for c := int32(0); c < 16; c++ {
			b.Append(tick, []int32{c, 15 - c}, float64(c)*float64(tick)*0.3+float64(c%3))
		}
	}
	docs := make(map[string][]byte)
	for _, alg := range []string{"", "mo"} {
		a, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Alg: alg, Shards: 2}.Build()
		if err != nil {
			t.Fatalf("Alg %q: %v", alg, err)
		}
		if _, err := a.IngestBatch(&b); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := a.WriteCheckpoint(&doc); err != nil {
			t.Fatal(err)
		}
		a.Close()
		docs[alg] = doc.Bytes()
	}
	if !bytes.Equal(docs[""], docs["mo"]) {
		t.Fatal(`Alg "" and "mo" checkpoint different bytes`)
	}
	_, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Alg: "popular-path", Shards: 1}.Build()
	if err == nil || !strings.Contains(err.Error(), "m/o-cubing only") {
		t.Fatalf(`Alg "popular-path": err = %v, want a refusal saying the node runs m/o-cubing only`, err)
	}
}

// TestLoggedFrameIsReceivedFrame: a node logs a binary frame's payload as
// it was received, where it once logged the decoded batch re-encoded. The
// two logs replay to the same engine: a log written by the node and the
// log AppendColumnar re-encodes from it decode to the same batches, and
// Analyzer.ReplayLog over either cuts the same checkpoint bytes at 1 and 4
// shards. One frame carries a member as the non-minimal varint 0x80 0x00,
// which DecodeBatch accepts as 0: there, and only there, the logs' bytes
// differ.
func TestLoggedFrameIsReceivedFrame(t *testing.T) {
	feed := wire.EncodeHeader(nil, 2)
	var b wire.Batch
	for batch := 0; batch < 10; batch++ {
		b.Reset(2)
		for tick := int64(4 * batch); tick < int64(4*batch+4); tick++ {
			for c := int32(0); c < 16; c++ {
				b.Append(tick, []int32{c % 4, c / 4}, float64(tick)*float64(c+1)*0.1+float64(c%3))
			}
		}
		payload := wire.AppendBatch(nil, &b)
		if batch == 3 {
			// The first member follows the count and the tick deltas; it is
			// 0, a one-byte varint, written here in two bytes.
			count, at := binary.Uvarint(payload[2:])
			at += 2
			for range count {
				_, n := binary.Varint(payload[at:])
				at += n
			}
			if payload[at] != 0 {
				t.Fatalf("first member encodes as %#x, want 0", payload[at])
			}
			payload = slices.Concat(payload[:at], []byte{0x80, 0x00}, payload[at+1:])
		}
		feed = wire.EncodeFrame(feed, payload)
	}
	dir := t.TempDir()
	received, reencoded := filepath.Join(dir, "received"), filepath.Join(dir, "reencoded")
	err := Run(context.Background(), Config{
		Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: 6, Threshold: 0.5, Shards: 2},
		WALDir: received,
	}, bytes.NewReader(feed), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wlog, err := wal.Open(wal.Options{Dir: reencoded, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.ReplayBatches(received, 0, func(_ int64, b *wire.Batch) error { return wlog.AppendColumnar(b) }); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	logBytes := func(dir string) []byte {
		seg, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	batches := func(dir string) (all []wire.Batch) {
		if _, err := wal.ReplayBatches(dir, 0, func(_ int64, b *wire.Batch) error {
			c := wire.Batch{Ticks: slices.Clone(b.Ticks), Values: slices.Clone(b.Values)}
			for _, col := range b.Cols {
				c.Cols = append(c.Cols, slices.Clone(col))
			}
			all = append(all, c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return all
	}
	if got, want := logBytes(received), logBytes(reencoded); bytes.Equal(got, want) || len(got) != len(want)+1 {
		t.Fatalf("received log %d bytes, re-encoded %d: want them to differ by the one extra varint byte", len(got), len(want))
	}
	if got, want := batches(received), batches(reencoded); len(got) != 10 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the logs decode to different batches (%d and %d)", len(got), len(want))
	}
	for _, shards := range []int{1, 4} {
		var docs [2][]byte
		for i, dir := range []string{received, reencoded} {
			a, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 6, Threshold: 0.5, Shards: shards}.Build()
			if err != nil {
				t.Fatal(err)
			}
			if n, err := a.ReplayLog(dir, 0, func([]*stream.Snapshot) {}); err != nil || n != 640 {
				t.Fatalf("shards=%d: replayed %d records, %v", shards, n, err)
			}
			var doc bytes.Buffer
			if err := a.WriteCheckpoint(&doc); err != nil {
				t.Fatal(err)
			}
			a.Close()
			docs[i] = doc.Bytes()
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Fatalf("shards=%d: the received log and the re-encoded one replay to different checkpoints", shards)
		}
	}
}
