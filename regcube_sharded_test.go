package regcube

import (
	"bytes"
	"testing"
)

// The facade surface at several shards: StreamConfig.Shards reaches the
// engine, which ingests, cuts a checkpoint through the versioned envelope
// and restores it at another count. That every count computes the same
// units, alerts and checkpoint bytes, record by record or in batches, is
// FuzzStreamContract's (internal/stream): StreamEngine is stream.Engine.
func TestShardedFacadeRoundTrip(t *testing.T) {
	h, err := NewFanoutHierarchy("region", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Dimension{Name: "region", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Schema: schema, TicksPerUnit: 4, Threshold: GlobalThreshold(0.5), Shards: 3}
	sharded, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for tick := int64(0); tick < 6; tick++ {
		for m := int32(0); m < 16; m++ {
			if _, err := sharded.Ingest([]int32{m}, tick, float64(tick)*float64(m%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scp, err := sharded.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, scp); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 5
	restored, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 3 || restored.Shards() != 5 || restored.Unit() != sharded.Unit() || restored.ActiveCells() != sharded.ActiveCells() {
		t.Fatalf("restored at %d shards: unit %d, %d cells; the %d-shard source: unit %d, %d cells",
			restored.Shards(), restored.Unit(), restored.ActiveCells(), sharded.Shards(), sharded.Unit(), sharded.ActiveCells())
	}
}
