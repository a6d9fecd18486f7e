package stream

import (
	"testing"

	"repro/internal/exception"
	"repro/internal/wire"
)

// toBatches packs a record stream into wire batches with cycling sizes so
// cuts land everywhere relative to unit boundaries: mid-unit, exactly on a
// boundary, spanning several units in one batch.
func toBatches(recs []testRecord, sizes ...int) []*wire.Batch {
	if len(sizes) == 0 {
		sizes = []int{1, 3, 17, 64, 5}
	}
	var out []*wire.Batch
	i, s := 0, 0
	for i < len(recs) {
		n := sizes[s%len(sizes)]
		s++
		if n > len(recs)-i {
			n = len(recs) - i
		}
		var b wire.Batch
		b.Reset(len(recs[i].members))
		for _, r := range recs[i : i+n] {
			b.Append(r.tick, r.members, r.value)
		}
		out = append(out, &b)
		i += n
	}
	return out
}

// ingestBatches feeds batches through IngestBatch and returns the units
// they closed.
func ingestBatches(t *testing.T, e *Engine, batches []*wire.Batch) []*Snapshot {
	t.Helper()
	var out []*Snapshot
	for _, b := range batches {
		closed, err := e.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closed...)
	}
	return out
}

// feedBatches is ingestBatches, then Flush.
func feedBatches(t *testing.T, e *Engine, batches []*wire.Batch) []*Snapshot {
	t.Helper()
	out := ingestBatches(t, e, batches)
	final, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, final)
}

// Batch-level validation fails the whole in-unit run before any of its
// records is ingested, with a typed ErrRecord, and earlier runs stand —
// at every shard count. An out-of-range member fails at ingest with Route's
// error for the first bad member: in dimension-major order in a batch, in
// dimension order in one record.
func TestIngestBatchValidation(t *testing.T) {
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1.0)}

	newBatch := func(dims int, recs ...testRecord) *wire.Batch {
		var b wire.Batch
		b.Reset(dims)
		for _, r := range recs {
			b.Append(r.tick, r.members, r.value)
		}
		return &b
	}

	p, err := NewPartitioner(cfg.Schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, wantBatch := p.Route([]int32{-1, 0}) // dimension 0 before dimension 1
	_, wantRecord := p.Route([]int32{1, 99})
	for _, shards := range []int{1, 3} {
		e, err := NewEngine(withShards(cfg, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		// Wrong dimension count.
		if _, err := e.IngestBatch(newBatch(3, testRecord{members: []int32{1, 2, 3}, tick: 0})); err == nil {
			t.Fatal("3-dim batch accepted by 2-dim engine")
		}

		// Ragged columns.
		ragged := newBatch(2, testRecord{members: []int32{1, 2}, tick: 0, value: 1})
		ragged.Values = ragged.Values[:0]
		if _, err := e.IngestBatch(ragged); err == nil {
			t.Fatal("ragged batch accepted")
		}

		// Members outside the m-layer fail the batch with Route's error for
		// the first bad one in dimension-major order, before any record of
		// it is ingested, and a record with Route's own.
		bad := newBatch(2,
			testRecord{members: []int32{2, 2}, tick: 0, value: 1},
			testRecord{members: []int32{1, 99}, tick: 0, value: 1},
			testRecord{members: []int32{-1, 0}, tick: 1, value: 1})
		if _, err := e.IngestBatch(bad); err == nil || err.Error() != wantBatch.Error() {
			t.Fatalf("%d shards: out-of-range batch: %v, want %v", shards, err, wantBatch)
		}
		if _, err := e.Ingest([]int32{1, 99}, 0, 1); err == nil || err.Error() != wantRecord.Error() {
			t.Fatalf("%d shards: out-of-range record: %v, want %v", shards, err, wantRecord)
		}
		if n := e.ActiveCells(); n != 0 {
			t.Fatalf("%d shards: refused records left %d active cells", shards, n)
		}

		// A valid batch, then one that regresses behind the open unit: the
		// first stands, the second fails.
		if _, err := e.IngestBatch(newBatch(2, testRecord{members: []int32{1, 1}, tick: 9, value: 1})); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestBatch(newBatch(2, testRecord{members: []int32{1, 1}, tick: 1, value: 1})); err == nil {
			t.Fatal("tick before the open unit accepted")
		}
	}
}
