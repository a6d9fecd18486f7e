package stream

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/wire"
)

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
