package stream

import (
	"errors"
	"testing"

	"repro/internal/exception"
)

func walTestConfig(t *testing.T, ticksPer int) Config {
	t.Helper()
	return Config{
		Schema:       wideSchema(t),
		TicksPerUnit: ticksPer,
		Threshold:    exception.Global(0.5),
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
