package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exception"
	"repro/internal/wal"
	"repro/internal/wire"
)

// checkpointJSON renders a checkpoint in its canonical serialized form;
// the replay-equivalence tests compare these byte for byte.
func checkpointJSON(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func walTestConfig(t *testing.T, ticksPer int) Config {
	t.Helper()
	return Config{
		Schema:       wideSchema(t),
		TicksPerUnit: ticksPer,
		Threshold:    exception.Global(0.5),
	}
}

// TestCheckpointThenReplayExactlyOnce is the watermark-agreement
// contract: cutting a checkpoint at ANY record position and then
// replaying the records past its WALSeq must land in exactly the state of
// an uninterrupted run — no batch double-applied (the boundary-crossing
// record is already inside the checkpoint's open unit) and none skipped.
func TestCheckpointThenReplayExactlyOnce(t *testing.T) {
	const ticksPer = 8
	recs := genStream(11, 3, ticksPer, -1)

	// Uninterrupted reference: every record, then a final flush.
	ref, err := NewEngine(walTestConfig(t, ticksPer))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if _, err := ref.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
		ref.SetWALSeq(int64(i + 1))
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := checkpointJSON(t, checkpointOf(t, ref))

	// Cut points: the edges, a mid-unit spot, and the records surrounding
	// the first unit-boundary crossing — the exact position where a
	// unit-granular watermark would double-apply.
	boundary := -1
	for i, r := range recs {
		if r.tick >= int64(ticksPer) {
			boundary = i
			break
		}
	}
	if boundary < 1 {
		t.Fatal("stream has no boundary crossing")
	}
	cuts := []int{0, 1, boundary - 1, boundary, boundary + 1, len(recs) / 2, len(recs) - 1, len(recs)}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			live, err := NewEngine(walTestConfig(t, ticksPer))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:cut] {
				if _, err := live.Ingest(r.members, r.tick, r.value); err != nil {
					t.Fatal(err)
				}
			}
			live.SetWALSeq(int64(cut))
			cp := checkpointOf(t, live)
			if cp.WALSeq != int64(cut) {
				t.Fatalf("checkpoint WALSeq = %d, want %d", cp.WALSeq, cut)
			}
			// Serialize/deserialize so the restored engine sees exactly
			// what a checkpoint file would carry.
			raw := checkpointJSON(t, cp)
			var loaded Checkpoint
			if err := json.Unmarshal(raw, &loaded); err != nil {
				t.Fatal(err)
			}
			restored, err := NewEngine(walTestConfig(t, ticksPer))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(&loaded); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if restored.WALSeq() != int64(cut) {
				t.Fatalf("restored WALSeq = %d, want %d", restored.WALSeq(), cut)
			}
			// Replay exactly the records past the watermark.
			for i, r := range recs[restored.WALSeq():] {
				if _, err := restored.Ingest(r.members, r.tick, r.value); err != nil {
					t.Fatalf("replay record %d: %v", i, err)
				}
			}
			restored.SetWALSeq(int64(len(recs)))
			if _, err := restored.Flush(); err != nil {
				t.Fatal(err)
			}
			got := checkpointJSON(t, checkpointOf(t, restored))
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint-then-replay at cut %d diverged from uninterrupted run\n got: %.200s\nwant: %.200s",
					cut, got, want)
			}
		})
	}
}

// TestCheckpointSerializationCanonical: two checkpoints of the same state
// must serialize identically — map iteration order must not leak.
func TestCheckpointSerializationCanonical(t *testing.T) {
	eng, err := NewEngine(walTestConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range genStream(3, 2, 8, -1) {
		if _, err := eng.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
	a := checkpointJSON(t, checkpointOf(t, eng))
	b := checkpointJSON(t, checkpointOf(t, eng))
	if !bytes.Equal(a, b) {
		t.Fatalf("same state serialized two ways:\n%s\n%s", a, b)
	}
}

// TestWALReplayShardCountWhatIf is the what-if acceptance: the same
// on-disk WAL replayed through 1, 4, and 7 shards must produce merged
// checkpoints byte-identical to each other and to an engine fed the
// records directly (no WAL round trip).
func TestWALReplayShardCountWhatIf(t *testing.T) {
	const ticksPer = 8
	recs := genStream(29, 3, ticksPer, 1)

	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 10, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// Small segments force multi-segment replay; batches of 5 exercise
	// multi-record frames.
	for i := 0; i < len(recs); i += 5 {
		end := min(i+5, len(recs))
		var batch wire.Batch
		batch.Reset(len(recs[i].members))
		for _, r := range recs[i:end] {
			batch.Append(r.tick, r.members, r.value)
		}
		if err := log.AppendColumnar(&batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if len(log.Segments()) < 3 {
		t.Fatalf("want 3+ segments for the replay, got %d", len(log.Segments()))
	}

	// Direct reference: no WAL in the loop.
	direct, err := NewEngine(walTestConfig(t, ticksPer))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := direct.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := direct.Flush(); err != nil {
		t.Fatal(err)
	}
	direct.SetWALSeq(int64(len(recs)))
	want := checkpointJSON(t, checkpointOf(t, direct))

	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			seng, err := NewEngine(withShards(walTestConfig(t, ticksPer), shards))
			if err != nil {
				t.Fatal(err)
			}
			defer seng.Close()
			n, err := wal.ReplayBatches(dir, 0, func(seq int64, b *wire.Batch) error {
				_, err := seng.IngestBatch(b)
				return err
			})
			if err != nil {
				t.Fatalf("ReplayBatches: %v", err)
			}
			if n != int64(len(recs)) {
				t.Fatalf("replayed %d records, want %d", n, len(recs))
			}
			if _, err := seng.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := seng.SetWALSeq(n); err != nil {
				t.Fatal(err)
			}
			cp, err := seng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if got := checkpointJSON(t, cp); !bytes.Equal(got, want) {
				t.Fatalf("WAL replay at %d shards diverged from direct run\n got: %.200s\nwant: %.200s",
					shards, got, want)
			}
		})
	}
}

// TestShardedWALSeqValidation: shards must agree on the watermark, and
// checkpoint/restore must carry it.
func TestShardedWALSeqValidation(t *testing.T) {
	cfg := walTestConfig(t, 8)
	seng, err := NewEngine(withShards(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer seng.Close()
	for _, r := range genStream(5, 2, 8, -1) {
		if _, err := seng.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := seng.SetWALSeq(42); err != nil {
		t.Fatal(err)
	}
	if got := seng.WALSeq(); got != 42 {
		t.Fatalf("WALSeq = %d; want 42", got)
	}
	cp, err := seng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.WALSeq != 42 {
		t.Fatalf("checkpoint WALSeq = %d, want 42", cp.WALSeq)
	}
	// Parts cut at different log positions are rejected.
	part := func(seq int64) *Checkpoint {
		return &Checkpoint{Unit: cp.Unit, UnitsDone: cp.UnitsDone, WALSeq: seq, Schema: cp.Schema}
	}
	if _, err := MergeCheckpoints([]*Checkpoint{part(42), part(41)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("MergeCheckpoints with disagreeing WALSeq: %v, want ErrConfig", err)
	}
	// Restore round-trips the watermark across a shard-count change.
	seng2, err := NewEngine(withShards(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer seng2.Close()
	if err := seng2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := seng2.WALSeq(); got != 42 {
		t.Fatalf("restored WALSeq = %d; want 42", got)
	}
	// A negative watermark never restores.
	neg, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Checkpoint{Unit: 0, WALSeq: -1, Schema: shapeOf(cfg.Schema)}
	if err := neg.Restore(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("Restore(WALSeq=-1): %v, want ErrConfig", err)
	}
}
