package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// withShards returns cfg at the given shard count.
func withShards(cfg Config, shards int) Config {
	cfg.Shards = shards
	return cfg
}

// testRecord is one record of a generated stream.
type testRecord struct {
	members []int32
	tick    int64
	value   float64
}

// genStream builds a deterministic random stream over the 9×9 m-layer of
// smallSchema: per unit a random subset of cells reports at a random subset
// of ticks. Unit `emptyUnit` gets no records at all (tests slope changes
// across a quiet unit and empty-unit merging).
func genStream(seed int64, units, ticksPer int, emptyUnit int) []testRecord {
	r := rand.New(rand.NewSource(seed))
	var out []testRecord
	for u := 0; u < units; u++ {
		if u == emptyUnit {
			continue
		}
		active := make(map[[2]int32][]bool)
		for a := int32(0); a < 9; a++ {
			for b := int32(0); b < 9; b++ {
				if r.Float64() < 0.4 {
					ticks := make([]bool, ticksPer)
					any := false
					for i := range ticks {
						if r.Float64() < 0.7 {
							ticks[i] = true
							any = true
						}
					}
					if !any {
						ticks[0] = true
					}
					active[[2]int32{a, b}] = ticks
				}
			}
		}
		for i := 0; i < ticksPer; i++ {
			for a := int32(0); a < 9; a++ {
				for b := int32(0); b < 9; b++ {
					ticks, ok := active[[2]int32{a, b}]
					if !ok || !ticks[i] {
						continue
					}
					out = append(out, testRecord{
						members: []int32{a, b},
						tick:    int64(u*ticksPer + i),
						value:   r.NormFloat64() * 5,
					})
				}
			}
		}
	}
	return out
}

// wideSchema is a 2-dim, 3-level fanout-3 schema: m-layer 9×9, o-layer 3×3
// (9 shard partitions).
func wideSchema(t testing.TB) *cube.Schema { return fanoutSchema(t, 3, 2) }

// sparseSchema is wideSchema's shape at depth 6: an m-layer of 729×729
// cells, whose members 0..8 roll up to the same 3×3 o-cells — genStream's
// streams with a few dozen active cells of half a million.
func sparseSchema(t testing.TB) *cube.Schema { return fanoutSchema(t, 3, 6) }

// overflowSchema has five dimensions of 2¹³ m-members: 2⁶⁵ m-cells, more
// than a 64-bit cell code holds.
func overflowSchema(t testing.TB) *cube.Schema {
	t.Helper()
	dims := make([]cube.Dimension, 5)
	for d := range dims {
		name := string(rune('A' + d))
		h, _ := cube.NewFanoutHierarchy(name, 1<<13, 1)
		dims[d] = cube.Dimension{Name: name, Hierarchy: h, MLevel: 1, OLevel: 0}
	}
	s, err := cube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FanoutSchema is fanoutSchema, for the tests of package stream_test.
var FanoutSchema = fanoutSchema

// fanoutSchema is a 2-dim schema of fanout hierarchies `levels` deep, the
// m-layer at the finest level and the o-layer one above it.
func fanoutSchema(t testing.TB, fanout, levels int) *cube.Schema {
	t.Helper()
	ha, _ := cube.NewFanoutHierarchy("A", fanout, levels)
	hb, _ := cube.NewFanoutHierarchy("B", fanout, levels)
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: levels, OLevel: levels - 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: levels, OLevel: levels - 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkpointOf is e's Checkpoint, which must not fail.
func checkpointOf(t testing.TB, e *Engine) *Checkpoint {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func feed(t testing.TB, e *Engine, recs []testRecord) []*Snapshot {
	t.Helper()
	var out []*Snapshot
	for _, r := range recs {
		closed, err := e.Ingest(r.members, r.tick, r.value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closed...)
	}
	final, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, final)
}

// requireSameResults asserts two unit-result sequences are identical:
// bitwise-equal cell measures, byte-identical alerts in the order each
// engine returned them (canonical by construction — no sorting here).
func requireSameResults(t *testing.T, label string, want, got []*Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d unit results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Unit != g.Unit || w.Interval != g.Interval {
			t.Fatalf("%s unit %d: meta %v/%v vs %v/%v", label, i, g.Unit, g.Interval, w.Unit, w.Interval)
		}
		if (w.Result == nil) != (g.Result == nil) {
			t.Fatalf("%s unit %d: result nil-ness differs", label, w.Unit)
		}
		if w.Result != nil {
			requireSameCells(t, fmt.Sprintf("%s unit %d", label, w.Unit), w.Result, g.Result)
		}
		if !reflect.DeepEqual(w.Alerts, g.Alerts) {
			t.Fatalf("%s unit %d: alerts differ:\n%+v\nvs\n%+v", label, w.Unit, g.Alerts, w.Alerts)
		}
		if !slices.IsSortedFunc(g.Alerts, compareAlerts) {
			t.Fatalf("%s unit %d: alerts not in canonical order", label, w.Unit)
		}
	}
}

// requireSameCells asserts got holds exactly want's retained cells, read
// through every accessor: the counts, the canonical lists, each o-cell's
// supporters, and a lookup of each cell of either kind as both kinds — so
// a merged result that sends a lookup to the wrong part fails here.
func requireSameCells(t testing.TB, label string, want, got *core.Result) {
	t.Helper()
	if got.NumOCells() != want.NumOCells() || got.NumExceptions() != want.NumExceptions() {
		t.Fatalf("%s: %d o-cells and %d exceptions, want %d and %d",
			label, got.NumOCells(), got.NumExceptions(), want.NumOCells(), want.NumExceptions())
	}
	oCells, exceptions := want.OCells(), want.ExceptionCells()
	if !slices.Equal(got.OCells(), oCells) || !slices.Equal(got.ExceptionCells(), exceptions) {
		t.Fatalf("%s: canonical cell lists differ", label)
	}
	for _, o := range oCells {
		if !slices.Equal(slices.Collect(got.Supporters(o.Key)), slices.Collect(want.Supporters(o.Key))) {
			t.Fatalf("%s: supporters of o-cell %v differ", label, o.Key)
		}
	}
	for _, c := range slices.Concat(oCells, exceptions) {
		for kind, lookup := range map[string][2]func(cube.CellKey) (regression.ISB, bool){
			"o-cell":    {want.OCell, got.OCell},
			"exception": {want.Exception, got.Exception},
		} {
			w, wok := lookup[0](c.Key)
			g, gok := lookup[1](c.Key)
			if w != g || wok != gok {
				t.Fatalf("%s: %s lookup of %v = %v/%v, want %v/%v", label, kind, c.Key, g, gok, w, wok)
			}
		}
	}
}

func TestShardedValidation(t *testing.T) {
	s := wideSchema(t)
	cfg := Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1)}
	if _, err := NewEngine(withShards(cfg, -1)); err == nil {
		t.Fatal("expected shard-count error")
	}
	if e, err := NewEngine(cfg); err != nil || e.Shards() != 1 {
		t.Fatalf("zero shards: %v, want one shard", err)
	}
	if _, err := NewEngine(withShards(Config{TicksPerUnit: 4}, 2)); err == nil {
		t.Fatal("expected config error")
	}
	e, err := NewEngine(withShards(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0}, 0, 1); err == nil {
		t.Fatal("expected member-count error")
	}
	if _, err := e.Ingest([]int32{0, 99}, 0, 1); err == nil {
		t.Fatal("expected member-range error")
	}
	if _, err := e.Ingest([]int32{0, 0}, 6, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0, 0}, 2, 1); err == nil {
		t.Fatal("expected stale-tick error")
	}
	if e.Shards() != 3 || e.Unit() != 1 || e.UnitsDone() != 1 {
		t.Fatalf("counters: shards=%d unit=%d done=%d", e.Shards(), e.Unit(), e.UnitsDone())
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Ingest([]int32{0, 0}, 7, 1); err == nil {
		t.Fatal("expected closed-engine error")
	}
	if _, err := e.Flush(); err == nil {
		t.Fatal("expected closed-engine error")
	}
	if err := e.Restore(&Checkpoint{}); err == nil {
		t.Fatal("expected closed-engine error")
	}
}

// An engine leaves no goroutine behind: a 4-shard engine nobody closes
// ingests across several units, cuts a checkpoint, restores it and
// flushes, and the goroutine count returns to what it was before
// NewEngine. The unit close forks its shards and joins them, so the count
// may lag only by goroutines still exiting.
func TestEngineStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1)}
	e, err := NewEngine(withShards(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	recs := genStream(3, 5, 4, -1)
	half := len(recs) / 2
	ingestBatches(t, e, toBatches(recs[:half]))
	if e.UnitsDone() < 2 {
		t.Fatalf("%d units closed, want several", e.UnitsDone())
	}
	if err := e.Restore(checkpointOf(t, e)); err != nil {
		t.Fatal(err)
	}
	feedBatches(t, e, toBatches(recs[half:]))
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after the engine's run, %d before NewEngine", n, before)
	}
}

// MergeCheckpoints validates cross-partition consistency.
func TestShardedCheckpointValidate(t *testing.T) {
	if _, err := MergeCheckpoints(nil); err == nil {
		t.Fatal("expected empty-checkpoint error")
	}
	if _, err := MergeCheckpoints([]*Checkpoint{nil}); err == nil {
		t.Fatal("expected nil-part error")
	}
	if _, err := MergeCheckpoints([]*Checkpoint{{Unit: 1}, {Unit: 2}}); err == nil {
		t.Fatal("expected unit-mismatch error")
	}
	if _, err := MergeCheckpoints([]*Checkpoint{{UnitsDone: 1}, {UnitsDone: 2}}); err == nil {
		t.Fatal("expected units-done-mismatch error")
	}
	a := []DimensionShape{{Name: "A", MLevel: 2, OLevel: 1, Card: 4}}
	b := []DimensionShape{{Name: "A", MLevel: 2, OLevel: 1, Card: 8}}
	if _, err := MergeCheckpoints([]*Checkpoint{{Schema: a}, {Schema: b}}); err == nil {
		t.Fatal("expected schema-shape-mismatch error")
	}
	s := wideSchema(t)
	e, err := NewEngine(withShards(Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1)}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Restore(nil); err == nil {
		t.Fatal("expected nil-checkpoint error on restore")
	}
	if err := e.Restore(&Checkpoint{Schema: a}); err == nil {
		t.Fatal("expected schema-mismatch error on restore")
	}
}
