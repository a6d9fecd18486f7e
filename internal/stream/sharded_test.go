package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
)

// ingester is the surface shared by Engine and ShardedEngine that the
// equivalence tests drive.
type ingester interface {
	Ingest(members []int32, tick int64, value float64) ([]*UnitResult, error)
	Flush() (*UnitResult, error)
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

func feed(t testing.TB, e ingester, recs []testRecord) []*UnitResult {
	t.Helper()
	var out []*UnitResult
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
func requireSameResults(t *testing.T, label string, want, got []*UnitResult) {
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
			if !reflect.DeepEqual(w.Result.OLayer, g.Result.OLayer) {
				t.Fatalf("%s unit %d: o-layers differ", label, w.Unit)
			}
			if !reflect.DeepEqual(w.Result.Exceptions, g.Result.Exceptions) {
				t.Fatalf("%s unit %d: exception sets differ", label, w.Unit)
			}
		}
		if !reflect.DeepEqual(w.Alerts, g.Alerts) {
			t.Fatalf("%s unit %d: alerts differ:\n%+v\nvs\n%+v", label, w.Unit, g.Alerts, w.Alerts)
		}
		if !slices.IsSortedFunc(g.Alerts, compareAlerts) {
			t.Fatalf("%s unit %d: alerts not in canonical order", label, w.Unit)
		}
		for _, a := range g.Alerts {
			if !slices.IsSortedFunc(a.Drill, core.CompareCells) {
				t.Fatalf("%s unit %d: drill of %v not in CompareKeys order", label, w.Unit, a.Cell)
			}
		}
	}
}

// The tentpole property: identical record streams through Engine and
// ShardedEngine at 1, 4, and 7 shards produce identical sorted alerts
// (slope changes included) and cell sets.
func TestShardedMatchesSingleEngine(t *testing.T) {
	s := wideSchema(t)
	cfg := Config{
		Schema:       s,
		TicksPerUnit: 4,
		Threshold:    exception.Global(1.0),
		Delta:        &exception.Delta{MinSlopeChange: 0.8},
	}
	for seed := int64(1); seed <= 3; seed++ {
		recs := genStream(seed, 6, 4, 2)
		single, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := feed(t, single, recs)

		for _, shards := range []int{1, 4, 7} {
			sh, err := NewShardedEngine(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			got := feed(t, sh, recs)
			requireSameResults(t, "sharded", want, got)

			// History-backed queries agree for every o-cell too.
			for a := int32(0); a < 3; a++ {
				for b := int32(0); b < 3; b++ {
					cell := cube.NewCellKey(s.OLayer(), a, b)
					hw := single.HistoryLen(cell)
					hg, err := sh.HistoryLen(cell)
					if err != nil {
						t.Fatal(err)
					}
					if hw != hg {
						t.Fatalf("history len %d vs %d for %v", hg, hw, cell)
					}
					if hw == 0 {
						continue
					}
					tw, errW := single.TrendQuery(cell, 1)
					tg, errG := sh.TrendQuery(cell, 1)
					if (errW == nil) != (errG == nil) || tw != tg {
						t.Fatalf("trend query differs for %v: %v/%v vs %v/%v", cell, tg, errG, tw, errW)
					}
				}
			}
			sh.Close()
		}
	}
}

// Checkpoints round-trip across shard counts: state taken at one count is
// the very checkpoint a plain Engine exports at that stream position, and
// restores into any other count (and into a plain Engine, and back) with
// the engines bitwise-identical afterwards.
func TestShardedCheckpointRepartitions(t *testing.T) {
	s := wideSchema(t)
	cfg := Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1.0)}
	recs := genStream(7, 6, 4, -1)
	split := len(recs) / 2

	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewShardedEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, r := range recs[:split] {
		if _, err := ref.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, ref.Checkpoint()) {
		t.Fatal("4-shard checkpoint differs from the plain engine's")
	}

	finish := func(e ingester) []*UnitResult {
		var out []*UnitResult
		for _, r := range recs[split:] {
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
	want := finish(ref)

	for _, shards := range []int{7, 4, 1} {
		dst, err := NewShardedEngine(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(cp); err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "restored-sharded", want, finish(dst))
		dst.Close()
	}
	plain, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(cp); err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "restored-plain", want, finish(plain))
}

func TestShardedValidation(t *testing.T) {
	s := wideSchema(t)
	cfg := Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1)}
	if _, err := NewShardedEngine(cfg, 0); err == nil {
		t.Fatal("expected shard-count error")
	}
	if _, err := NewShardedEngine(Config{TicksPerUnit: 4}, 2); err == nil {
		t.Fatal("expected config error")
	}
	e, err := NewShardedEngine(cfg, 3)
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

// A record error inside a shard (per-cell duplicate tick) surfaces at the
// next barrier, sticks, and is cleared by Restore.
func TestShardedStickyErrorAndRecovery(t *testing.T) {
	s := wideSchema(t)
	cfg := Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1)}
	e, err := NewShardedEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cp, err := e.Checkpoint() // clean state for later recovery
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0, 0}, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Same cell, same tick: the owning shard rejects it asynchronously.
	if _, err := e.Ingest([]int32{0, 0}, 0, 2); err != nil {
		t.Fatalf("duplicate-tick error must be deferred to the barrier, got %v", err)
	}
	if _, err := e.Flush(); err == nil {
		t.Fatal("expected deferred record error at flush")
	}
	if _, err := e.Flush(); err == nil {
		t.Fatal("error must stick")
	}
	if err := e.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0, 0}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatalf("restore must clear the sticky error: %v", err)
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
	e, err := NewShardedEngine(Config{Schema: s, TicksPerUnit: 4, Threshold: exception.Global(1)}, 2)
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

// Single-engine runs are themselves deterministic now (canonical
// aggregation order): two identical runs produce bitwise-identical
// results. This is the foundation the sharded equivalence rests on.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1.0)}
	recs := genStream(11, 4, 4, -1)
	a, _ := NewEngine(cfg)
	b, _ := NewEngine(cfg)
	requireSameResults(t, "rerun", feed(t, a, recs), feed(t, b, recs))
}
