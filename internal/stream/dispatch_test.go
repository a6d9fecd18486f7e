package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/tilt"
	"repro/internal/wire"
)

// scribble overwrites every column of a batch the engine has been handed
// and has returned from — the contract says the caller may, at once.
func scribble(b *wire.Batch) {
	for i := range b.Ticks {
		b.Ticks[i] = -1 << 40
		b.Values[i] = -12345.678
	}
	for _, col := range b.Cols {
		for i := range col {
			col[i] = 1 << 20
		}
	}
}

// The selection-dispatch property: however the stream is cut — batches
// straddling several unit boundaries, one-record batches that leave most
// shards without a selection, per-record Ingest interleaved with
// IngestBatch, every batch scribbled over the moment its call returns —
// a ShardedEngine at 1, 2, 4 and 7 shards closes the units a plain Engine
// fed record by record closes and ends in its state, bitwise, under the
// default one-level frame chain and the calendar chain — on a 9×9 m-layer
// and on a 729×729 one where the same few dozen cells are active: one cell
// path, whose dictionary numbers each shard's cells, on both.
func TestSelectionDispatchMatchesSingleEngine(t *testing.T) {
	for _, sc := range []struct {
		name   string
		schema *cube.Schema
	}{{"dense", wideSchema(t)}, {"sparse", sparseSchema(t)}} {
		for _, chain := range []struct {
			name   string
			levels []tilt.Level
		}{{"flat", nil}, {"calendar", tilt.CalendarLevels()}} {
			dispatchMatchesSingleEngine(t, sc.name+"/"+chain.name, Config{
				Schema:       sc.schema,
				TicksPerUnit: 4,
				Threshold:    exception.Global(1.0),
				Delta:        &exception.Delta{MinSlopeChange: 0.8},
				TiltLevels:   chain.levels,
			})
		}
	}
}

func dispatchMatchesSingleEngine(t *testing.T, name string, cfg Config) {
	for seed := int64(1); seed <= 3; seed++ {
		// Ten units of ~90 records each, unit 2 empty.
		recs := genStream(seed, 10, 4, 2)
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := feed(t, ref, recs)
		wantCP := checkpointJSON(t, ref.Checkpoint())

		for _, cut := range []struct {
			name  string
			sizes []int
		}{
			{"straddling", []int{350, 1, 97, 260}}, // up to four boundaries in a batch
			{"sparse", []int{1, 2, 1, 3}},          // most shards get no selection
			{"mixed", []int{17, 64, 5, 120}},
		} {
			for _, shards := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("%s/seed%d/%s/shards%d", name, seed, cut.name, shards)
				sh, err := NewShardedEngine(cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				var got []*UnitResult
				pos := 0
				for k, b := range toBatches(recs, cut.sizes...) {
					if k%3 == 2 {
						// Every third cut goes in record by record, into the
						// segment the batches share.
						for _, r := range recs[pos : pos+b.Len()] {
							closed, err := sh.Ingest(r.members, r.tick, r.value)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							got = append(got, closed...)
						}
					} else {
						closed, err := sh.IngestBatch(b)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got = append(got, closed...)
					}
					pos += b.Len()
					scribble(b)
				}
				final, err := sh.Flush()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameResults(t, label, want, append(got, final))
				cp, err := sh.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantCP, checkpointJSON(t, cp)) {
					t.Fatalf("%s: checkpoint differs from the single engine's", label)
				}
				sh.Close()
			}
		}
	}
}

// denseFrame is a batch of a dense 9×9 stream: every cell of wideSchema's
// m-layer on every tick of [from, from+ticks), 81 records a tick.
func denseFrame(from, ticks int) *wire.Batch {
	var b wire.Batch
	b.Reset(2)
	for tk := from; tk < from+ticks; tk++ {
		for a := int32(0); a < 9; a++ {
			for c := int32(0); c < 9; c++ {
				b.Append(int64(tk), []int32{a, c}, float64(tk%7)+float64(a))
			}
		}
	}
	return &b
}

// Steady-state IngestBatch at two shards allocates nothing: the segments
// circulate, their columns and position lists keep their capacity, every
// cell is in the dictionary and the slabs, and a dispatch is channel sends
// of a pointer — on a 9×9 m-layer, a 729×729 one and one of 289×289 cells,
// just past 2¹⁶, alike.
func TestIngestBatchSteadyStateAllocatesNothing(t *testing.T) {
	for _, sc := range []struct {
		name   string
		schema *cube.Schema
	}{{"dense", wideSchema(t)}, {"sparse", sparseSchema(t)}, {"past-2^16", fanoutSchema(t, 17, 2)}} {
		t.Run(sc.name, func(t *testing.T) { steadyStateAllocatesNothing(t, sc.schema) })
	}
}

func steadyStateAllocatesNothing(t *testing.T, schema *cube.Schema) {
	cfg := Config{Schema: schema, TicksPerUnit: 1 << 30, Threshold: exception.Global(1e18)}
	e, err := NewShardedEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const frameTicks = 25 // 2 025 records a frame
	frame := denseFrame(0, frameTicks)
	next := 0
	ingest := func() {
		for i := range frame.Ticks {
			frame.Ticks[i] = int64(next*frameTicks + i/81)
		}
		next++
		if _, err := e.IngestBatch(frame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*runAhead; i++ {
		ingest() // every segment grown, every cell's accumulator made
	}
	if allocs := testing.AllocsPerRun(200, ingest); allocs != 0 {
		t.Fatalf("steady-state IngestBatch allocates %.1f times a call, want 0", allocs)
	}
	if _, err := e.ActiveCells(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := e.DispatchStats(); segs != int64(next) {
		t.Fatalf("%d segments dispatched for %d single-unit batches", segs, next)
	}
}

// pooledSegments takes every segment out of the free list — after a
// barrier that is all of them — and puts them back.
func pooledSegments(t *testing.T, e *ShardedEngine) []*segment {
	t.Helper()
	if e.open != nil {
		t.Fatal("a segment is still open after a barrier")
	}
	if len(e.segFree) != runAhead {
		t.Fatalf("%d of %d segments are back after a barrier", len(e.segFree), runAhead)
	}
	segs := make([]*segment, runAhead)
	for i := range segs {
		segs[i] = <-e.segFree
	}
	for _, seg := range segs {
		e.segFree <- seg
	}
	return segs
}

// One wire.MaxBatchRecords batch grows a segment to ~20 MB of columns —
// ticks, values and ordinals; segments hold no member columns — plus its
// position lists; once ordinary frames follow, the engine must not keep
// any of it.
func TestSegmentBuffersAreBounded(t *testing.T) {
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 1 << 30, Threshold: exception.Global(1e18)}
	e, err := NewShardedEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	huge := denseFrame(0, wire.MaxBatchRecords/81)
	if _, err := e.IngestBatch(huge); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ActiveCells(); err != nil {
		t.Fatal(err)
	}
	grown := 0
	for _, seg := range pooledSegments(t, e) {
		grown = max(grown, min(cap(seg.ticks), cap(seg.values), cap(seg.ords)))
	}
	if grown < huge.Len() {
		t.Fatalf("largest pooled segment holds %d records, the batch had %d", grown, huge.Len())
	}
	const frameTicks = 25
	frame := denseFrame(huge.Len()/81, frameTicks)
	for i := 0; i < 3*runAhead; i++ {
		if _, err := e.IngestBatch(frame); err != nil {
			t.Fatal(err)
		}
		for j := range frame.Ticks {
			frame.Ticks[j] += frameTicks
		}
	}
	if _, err := e.ActiveCells(); err != nil {
		t.Fatal(err)
	}
	bound := 4*frame.Len() + 1024
	for i, seg := range pooledSegments(t, e) {
		held := max(cap(seg.ticks), cap(seg.values), cap(seg.ords))
		for i, sel := range seg.sel {
			held = max(held, cap(sel), cap(seg.fresh[i]))
		}
		if held > bound {
			t.Fatalf("segment %d still holds room for %d records after %d-record frames (bound %d)",
				i, held, frame.Len(), bound)
		}
	}
}

// Restore and Close with segments in flight, a segment open, and one shard
// poisoned by a record error: every segment comes back (a poisoned shard
// still counts itself out), the open one's records are discarded, and the
// restored engine runs on exactly as a fresh one restored from the same
// checkpoint.
func TestRestoreAndCloseAccountForSegments(t *testing.T) {
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1.0)}
	recs := genStream(5, 6, 4, -1)
	split := len(recs) / 2

	e, err := NewShardedEngine(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range toBatches(recs[:split], 40) {
		if _, err := e.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Past the checkpoint: a record its cell already consumed poisons the
	// owning shard, more segments queue up behind it, and per-record
	// ingest leaves a segment open. No barrier before Restore.
	last := recs[split-1]
	if _, err := e.Ingest(last.members, last.tick, 1); err != nil {
		t.Fatalf("the duplicate tick must surface at a barrier, got %v", err)
	}
	for _, b := range toBatches(recs[split:split+60], 7) {
		if _, err := e.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r := recs[split+60]
	if _, err := e.Ingest(r.members, r.tick, r.value); err != nil {
		t.Fatal(err)
	}
	if e.open == nil {
		t.Fatal("per-record ingest left no open segment; the test needs one")
	}
	if err := e.Restore(cp); err != nil {
		t.Fatal(err)
	}
	pooledSegments(t, e)

	ref, err := NewShardedEngine(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Restore(cp); err != nil {
		t.Fatal(err)
	}
	rest := toBatches(recs[split:], 33)
	want := feedBatches(t, ref, ref.Flush, rest)
	got := feedBatches(t, e, e.Flush, rest)
	requireSameResults(t, "restored with segments in flight", want, got)

	// Close with segments in flight and one open: the shards read what was
	// dispatched before they exit, so all of them are back when it returns.
	open := int(e.Unit()) * cfg.TicksPerUnit
	for i := 0; i < runAhead-1; i++ {
		if _, err := e.IngestBatch(denseFrame(open+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Ingest([]int32{0, 0}, int64(open+runAhead-1), 1); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e.open != nil || len(e.segFree) != runAhead-1 {
		t.Fatalf("after Close: open %v, %d segments back; want the open one dropped and the other %d back",
			e.open != nil, len(e.segFree), runAhead-1)
	}
}
