package stream

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/exception"
	"repro/internal/wire"
)

// Cell churn: twenty units on a 2¹⁸-cell m-layer, each a disjoint set of
// 5 000 cells, so over the run twenty times one unit's cells report. The
// coordinator's dictionary and the shards' slabs hold one unit's cells at
// most — the dictionary's table at most eight slots a cell — and the run
// closes the units a one-shard Engine fed record by record closes, bitwise.
func TestCellDictChurnStaysBounded(t *testing.T) {
	const units, cells, ticksPer = 20, 5000, 2
	cfg := Config{Schema: fanoutSchema(t, 8, 3), TicksPerUnit: ticksPer, Threshold: exception.Global(1.0)}
	var recs []testRecord
	for u := 0; u < units; u++ {
		for tk := 0; tk < ticksPer; tk++ {
			for i := 0; i < cells; i++ {
				if (i+tk)%3 == 0 {
					continue // a third of the cells skip each tick
				}
				k := int32(u*cells + i)
				recs = append(recs, testRecord{members: []int32{k % 512, k / 512}, tick: int64(u*ticksPer + tk), value: float64((i*7+tk)%11) - 5})
			}
		}
	}
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := feed(t, ref, recs)
	if ref.dict.n != 0 || len(ref.shards[0].slab) != 0 {
		t.Fatalf("a flushed engine holds %d dictionary cells and %d accumulators", ref.dict.n, len(ref.shards[0].slab))
	}

	e, err := NewEngine(withShards(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var got []*Snapshot
	for k, b := range toBatches(recs, 1000, 777) {
		closed, err := e.IngestBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, closed...)
		if k%4 != 3 {
			continue
		}
		held := [2]int{}
		for _, sh := range e.shards {
			held[0], held[1] = held[0]+cap(sh.slab), held[1]+cap(sh.codes)
		}
		if e.dict.n > cells || len(e.dict.slots) > 8*cells || held[0] > 2*cells || held[1] > 2*cells {
			t.Fatalf("batch %d (unit %d): dictionary %d cells in %d slots, slabs %d, codes %d; one unit has %d cells",
				k, e.Unit(), e.dict.n, len(e.dict.slots), held[0], held[1], cells)
		}
	}
	final, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "churn", want, append(got, final))
	if e.CellsActive() != cells {
		t.Fatalf("CellsActive = %d after a %d-cell unit closed", e.CellsActive(), cells)
	}
}

// A unit far larger than the ones after it does not pin its dictionary
// table or code scratch: the first reset after a small unit drops them.
func TestCellDictResetShrinks(t *testing.T) {
	layout, err := newCellLayout(sparseSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	d := newCellDict(&layout, nil)
	burst := func(n int) {
		var b wire.Batch
		b.Reset(2)
		for k := 0; k < n; k++ {
			b.Append(0, []int32{int32(k % 729), int32(k / 729)}, 1)
		}
		codes, err := d.codes(&b, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, code := range codes {
			if s := d.slot(code); s.key != 0 {
				t.Fatalf("cell %d found before it was filed", i)
			} else if s = d.add(s, code); s.ord != int32(i) {
				t.Fatalf("cell %d: ordinal %d", i, s.ord)
			}
		}
		if s := d.slot(codes[n/2]); s.key != codes[n/2]+1 || s.ord != int32(n/2) {
			t.Fatalf("second sight of cell %d: key %d, ordinal %d", n/2, s.key, s.ord)
		}
		d.reset()
	}
	burst(100000)
	if len(d.slots) < 400000 || cap(d.buf) < 100000 {
		t.Fatalf("after a 100000-cell unit: %d slots, %d scratch", len(d.slots), cap(d.buf))
	}
	burst(100)
	if len(d.slots) > 4*512 || cap(d.buf) > 4*100+1024 {
		t.Fatalf("after a 100-cell unit: %d slots, %d scratch still held", len(d.slots), cap(d.buf))
	}
}

// An m-layer whose cells a 64-bit code cannot number is refused at
// construction, at every shard count.
func TestEnginesRefuseOverflowingLayout(t *testing.T) {
	cfg := Config{Schema: overflowSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1)}
	for _, shards := range []int{1, 2} {
		if _, err := NewEngine(withShards(cfg, shards)); !errors.Is(err, ErrConfig) {
			t.Fatalf("%d shards: %v, want ErrConfig", shards, err)
		}
	}
	// Four of the five dimensions, 2⁵² cells, still fit.
	cfg.Schema.Dims = cfg.Schema.Dims[:4]
	if _, err := newCellLayout(cfg.Schema); err != nil {
		t.Fatalf("a 2^52-cell m-layer: %v", err)
	}
}

// A checkpoint Restore refuses — one cell outside the m-layer — leaves the
// engine as it was mid-unit: the coordinator's dictionary still numbers the
// open unit's cells as the shards' slabs hold them, and the run ends in
// the one-shard engine's results.
func TestRestoreRefusalKeepsDictionary(t *testing.T) {
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1.0)}
	recs := genStream(9, 6, 4, -1)
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := feed(t, ref, recs)
	e, err := NewEngine(withShards(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	half := len(recs) / 2
	got := ingestBatches(t, e, toBatches(recs[:half]))
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) == 0 {
		t.Fatal("the cut falls between units; the test needs an open unit with cells")
	}
	bad := *cp
	bad.Cells = append(slices.Clone(cp.Cells), CellState{Members: []int32{0, 99}})
	if err := e.Restore(&bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("Restore of a checkpoint with an out-of-range cell: %v, want ErrConfig", err)
	}
	requireSameResults(t, "after a refused restore", want, append(got, feedBatches(t, e, toBatches(recs[half:]))...))
}

// Every cell keeps its first-sight ordinal through every rehash, for a run
// of consecutive codes and for a lattice of them — every fifth member of
// two 2 728-member dimensions, 64 × 64 cells.
func TestCellDictKeepsOrdinals(t *testing.T) {
	var consecutive, lattice []uint64
	for c := uint64(0); c < 4096; c++ {
		consecutive = append(consecutive, c)
		lattice = append(lattice, 5*(c%64)+2728*5*(c/64))
	}
	for name, codes := range map[string][]uint64{"consecutive": consecutive, "lattice": lattice} {
		d := newCellDict(&cellLayout{}, nil)
		for i, code := range codes {
			if s := d.slot(code); s.key != 0 || d.add(s, code).ord != int32(i) {
				t.Fatalf("%s: cell %d filed twice or out of order", name, i)
			}
		}
		for i, code := range codes {
			if s := d.slot(code); s.key != code+1 || s.ord != int32(i) {
				t.Fatalf("%s: cell %d lost its ordinal", name, i)
			}
		}
	}
}
