package stream

import (
	"bytes"
	"fmt"
	"reflect"
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

// The batch-cut property: however the stream is cut — batches straddling
// several unit boundaries, one-record batches, per-record Ingest
// interleaved with IngestBatch, every batch scribbled over the moment its
// call returns — an Engine at 1, 2, 4 and 7 shards closes the units a
// one-shard Engine fed record by record closes and ends in its state,
// bitwise, under the default one-level frame chain and the calendar chain
// — on a 9×9 m-layer and on a 729×729 one where the same few dozen cells
// are active: one cell path, whose dictionary numbers each shard's cells,
// on both.
func TestBatchCutsMatchSingleEngine(t *testing.T) {
	for _, sc := range []struct {
		name   string
		schema *cube.Schema
	}{{"dense", wideSchema(t)}, {"sparse", sparseSchema(t)}} {
		for _, chain := range []struct {
			name   string
			levels []tilt.Level
		}{{"flat", nil}, {"calendar", tilt.CalendarLevels()}} {
			batchCutsMatchSingleEngine(t, sc.name+"/"+chain.name, Config{
				Schema:       sc.schema,
				TicksPerUnit: 4,
				Threshold:    exception.Global(1.0),
				Delta:        &exception.Delta{MinSlopeChange: 0.8},
				TiltLevels:   chain.levels,
			})
		}
	}
}

func batchCutsMatchSingleEngine(t *testing.T, name string, cfg Config) {
	for seed := int64(1); seed <= 3; seed++ {
		// Ten units of ~90 records each, unit 2 empty.
		recs := genStream(seed, 10, 4, 2)
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := feed(t, ref, recs)
		wantCP := checkpointJSON(t, checkpointOf(t, ref))

		for _, cut := range []struct {
			name  string
			sizes []int
		}{
			{"straddling", []int{350, 1, 97, 260}}, // up to four boundaries in a batch
			{"sparse", []int{1, 2, 1, 3}},          // most shards see no record of a batch
			{"mixed", []int{17, 64, 5, 120}},
		} {
			for _, shards := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("%s/seed%d/%s/shards%d", name, seed, cut.name, shards)
				sh, err := NewEngine(withShards(cfg, shards))
				if err != nil {
					t.Fatal(err)
				}
				var got []*Snapshot
				pos := 0
				for k, b := range toBatches(recs, cut.sizes...) {
					if k%3 == 2 {
						// Every third cut goes in record by record.
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
				if !bytes.Equal(wantCP, checkpointJSON(t, checkpointOf(t, sh))) {
					t.Fatalf("%s: checkpoint differs from the one-shard engine's", label)
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

// Steady-state IngestBatch allocates nothing at 1, 2 and 4 shards: every
// cell is in the dictionary and the slabs, the code scratch has grown, and
// the accumulator step runs in place — on a 9×9 m-layer, a 729×729 one and
// one of 289×289 cells, just past 2¹⁶, alike.
func TestIngestBatchSteadyStateAllocatesNothing(t *testing.T) {
	for _, sc := range []struct {
		name   string
		schema *cube.Schema
	}{{"dense", wideSchema(t)}, {"sparse", sparseSchema(t)}, {"past-2^16", fanoutSchema(t, 17, 2)}} {
		t.Run(sc.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				steadyStateAllocatesNothing(t, sc.schema, shards)
			}
		})
	}
}

func steadyStateAllocatesNothing(t *testing.T, schema *cube.Schema, shards int) {
	cfg := Config{Schema: schema, TicksPerUnit: 1 << 30, Threshold: exception.Global(1e18)}
	e, err := NewEngine(withShards(cfg, shards))
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
	ingest() // every cell's accumulator made, the code scratch grown
	if allocs := testing.AllocsPerRun(200, ingest); allocs != 0 {
		t.Fatalf("%d shards: steady-state IngestBatch allocates %.1f times a call, want 0", shards, allocs)
	}
}

// One burst unit of 20 000 cells, in one batch, grows the coordinator's
// dictionary and code scratch and the shards' slabs and unit-close arenas
// to its size; once an ordinary unit has closed after it, the engine keeps
// none of it. closeUnit drops a slab or arena past 4·n + 1024 for the n
// cells the closing unit held, and cellDict.reset a table or scratch past
// four times what that unit needed.
func TestBurstUnitBuffersAreBounded(t *testing.T) {
	cfg := Config{Schema: fanoutSchema(t, 8, 3), TicksPerUnit: 4, Threshold: exception.Global(1e18)}
	e, err := NewEngine(withShards(cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const burst = 20000
	var b wire.Batch
	b.Reset(2)
	for k := 0; k < burst; k++ {
		b.Append(0, []int32{int32(k % 512), int32(k / 512)}, float64(k%7))
	}
	if _, err := e.IngestBatch(&b); err != nil {
		t.Fatal(err)
	}
	// held is the largest per-record buffer any shard keeps: slab, codes,
	// the close's inputs and its member arena (two members a cell).
	held := func() (slabs, most int) {
		for _, sh := range e.shards {
			slabs += cap(sh.slab)
			most = max(most, cap(sh.slab), cap(sh.codes), cap(sh.inputs), cap(sh.members)/2)
		}
		return slabs, most
	}
	frame := denseFrame(4, 4) // unit 1: 81 cells, 324 records
	if _, err := e.IngestBatch(frame); err != nil {
		t.Fatal(err) // closes the burst unit
	}
	if slabs, _ := held(); slabs < burst || len(e.dict.slots) < 4*burst || cap(e.dict.buf) < burst {
		t.Fatalf("after the burst: slabs %d, dictionary %d slots, scratch %d; the unit had %d cells",
			slabs, len(e.dict.slots), cap(e.dict.buf), burst)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	const cells = 81
	bound := 4*cells + 1024
	if _, most := held(); most > bound {
		t.Fatalf("a shard still holds room for %d cells after an %d-cell unit (bound %d)", most, cells, bound)
	}
	if len(e.dict.slots) > 16*cells || cap(e.dict.buf) > 4*frame.Len()+1024 {
		t.Fatalf("the dictionary still holds %d slots and %d scratch after an %d-cell unit",
			len(e.dict.slots), cap(e.dict.buf), cells)
	}
}

// An Engine at 2, 4 and 7 shards behaves call for call as one at one
// shard, which closes its units on the caller's goroutine: the same
// snapshots returned, results, alerts, counts and frames alike, and —
// because the coordinator accumulates every record before the call
// returns — the same record error from the very call that carried the bad
// record, per record and per batch.
func TestEveryShardCountMatchesEngine(t *testing.T) {
	cfg := Config{
		Schema:           wideSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(1.0),
		Delta:            &exception.Delta{MinSlopeChange: 0.8},
		PublishSnapshots: true,
	}
	recs := genStream(3, 6, 4, 2)
	half := len(recs) / 2
	batches := toBatches(recs[half:])
	last := recs[len(recs)-1]
	// quiet is a cell with no record at last's tick or after: the bad
	// batch's first record, which stands.
	var quiet []int32
	for k := int32(0); k < 81 && quiet == nil; k++ {
		quiet = []int32{k % 9, k / 9}
		for _, r := range recs {
			if r.tick >= last.tick && reflect.DeepEqual(r.members, quiet) {
				quiet = nil
				break
			}
		}
	}
	if quiet == nil {
		t.Fatal("every cell reports on the last tick; the test needs a quiet one")
	}

	// run feeds the first half record by record and the second in batches,
	// then sends a record whose tick its cell already consumed — alone, or
	// inside a batch behind a good record of the same unit.
	run := func(e *Engine, inBatch bool) (urs []*Snapshot, recErr error) {
		for _, r := range recs[:half] {
			closed, err := e.Ingest(r.members, r.tick, r.value)
			if err != nil {
				t.Fatal(err)
			}
			urs = append(urs, closed...)
		}
		for _, b := range batches {
			closed, err := e.IngestBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			urs = append(urs, closed...)
		}
		if inBatch {
			var bad wire.Batch
			bad.Reset(2)
			bad.Append(last.tick, quiet, 1)
			bad.Append(last.tick, last.members, 1)
			_, recErr = e.IngestBatch(&bad)
		} else {
			_, recErr = e.Ingest(last.members, last.tick, 1)
		}
		return urs, recErr
	}

	for _, inBatch := range []bool{false, true} {
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantURs, wantErr := run(ref, inBatch)
		if wantErr == nil {
			t.Fatal("engine accepted a consumed tick")
		}
		wantCells := ref.dict.n

		for _, shards := range []int{2, 4, 7} {
			label := fmt.Sprintf("inBatch=%v/shards%d", inBatch, shards)
			sh, err := NewEngine(withShards(cfg, shards))
			if err != nil {
				t.Fatal(err)
			}
			gotURs, gotErr := run(sh, inBatch)

			requireSameResults(t, label, wantURs, gotURs)
			for i, w := range wantURs {
				if g := gotURs[i]; g.UnitsDone != w.UnitsDone || !reflect.DeepEqual(g.Frames, w.Frames) {
					t.Fatalf("%s: snapshot %d: %d units done, want %d, or frames differ", label, i, g.UnitsDone, w.UnitsDone)
				}
			}
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: record error %v, one shard's %v", label, gotErr, wantErr)
			}
			// The records before the bad one stand, and the error sticks.
			if got := sh.dict.n; got != wantCells {
				t.Fatalf("%s: %d active cells after the error, one shard %d", label, got, wantCells)
			}
			if _, err := sh.Flush(); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: Flush after the record error: %v, want it to stick", label, err)
			}
			sh.Close()
		}
	}
}
