package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/tilt"
)

// testTiltLevels is a small chain that promotes and evicts quickly: 4
// engine units per "hour", 3 hours per "day".
func testTiltLevels() []tilt.Level {
	return []tilt.Level{
		{Name: "quarter", Multiple: 1, Slots: 4},
		{Name: "hour", Multiple: 4, Slots: 6},
		{Name: "day", Multiple: 3, Slots: 2},
	}
}

func tiltConfig(t testing.TB) Config {
	return Config{
		Schema:           snapshotTestSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		TiltLevels:       testTiltLevels(),
		PublishSnapshots: true,
	}
}

func TestNewEngineValidatesTiltLevels(t *testing.T) {
	cfg := tiltConfig(t)
	cfg.TiltLevels = []tilt.Level{{Name: "bad", Multiple: 1, Slots: 0}}
	if _, err := NewEngine(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

// TestTiltedHistoryPromotesAndBounds drives enough units through a tilted
// engine to cross every promotion boundary and asserts (a) the finest
// level answers TrendQuery exactly like a flat engine over the same
// window, (b) coarser levels answer TrendQueryAt, and (c) total state
// stays bounded by the chain's slot capacity while a flat engine's
// history keeps growing.
func TestTiltedHistoryPromotesAndBounds(t *testing.T) {
	cfg := tiltConfig(t)
	flatCfg := cfg
	flatCfg.TiltLevels = nil
	flatCfg.HistoryUnits = 1024
	tilted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewEngine(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	const units = 30
	ticks := int64(units * cfg.TicksPerUnit)
	ingestGrid(t, tilted.Ingest, 0, ticks)
	ingestGrid(t, flat.Ingest, 0, ticks)
	if _, err := tilted.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Flush(); err != nil {
		t.Fatal(err)
	}

	cell := oCell(t, 0, 0)
	// (a) Finest-level trends agree bitwise with the flat engine over the
	// retained window.
	k := tilted.HistoryLen(cell)
	if k != testTiltLevels()[0].Slots {
		t.Fatalf("finest retention %d, want %d", k, testTiltLevels()[0].Slots)
	}
	for q := 1; q <= k; q++ {
		a, err := tilted.TrendQuery(cell, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flat.TrendQuery(cell, q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("k=%d: tilted %v vs flat %v", q, a, b)
		}
	}
	// (b) Coarser levels answer from promoted slots: one "hour" covers 4
	// engine units (with 30 closed units, the last complete hour is units
	// 24-27), one "day" 12.
	hour, err := tilted.TrendQueryAt(cell, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := hour.N(); n != int64(4*cfg.TicksPerUnit) {
		t.Fatalf("hour trend spans %d ticks, want %d", n, 4*cfg.TicksPerUnit)
	}
	if hour.Tb != int64(24*cfg.TicksPerUnit) {
		t.Fatalf("last hour starts at tick %d, want %d", hour.Tb, 24*cfg.TicksPerUnit)
	}
	day, err := tilted.TrendQueryAt(cell, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := day.N(); n != int64(12*cfg.TicksPerUnit) {
		t.Fatalf("day trend spans %d ticks, want %d", n, 12*cfg.TicksPerUnit)
	}
	if _, err := tilted.TrendQueryAt(cell, 3, 1); !errors.Is(err, ErrRecord) {
		t.Fatalf("out-of-range level: %v, want ErrRecord", err)
	}
	if _, err := flat.TrendQueryAt(cell, 1, 1); !errors.Is(err, ErrRecord) {
		t.Fatalf("flat engine must reject coarse levels: %v", err)
	}

	// (c) Bounded state: every frame is within capacity, while the flat
	// twin has accumulated every unit.
	inUse, capacity := tilted.TiltSlots()
	if inUse == 0 || inUse > capacity {
		t.Fatalf("tilt slots %d of %d", inUse, capacity)
	}
	perCell := tilted.Snapshot().FrameOf(cell)
	if perCell == nil {
		t.Fatal("snapshot has no frame for the o-cell")
	}
	var cellSlots int
	for _, lv := range perCell.Levels {
		if len(lv.Slots) > lv.Capacity {
			t.Fatalf("level %q holds %d slots, cap %d", lv.Name, len(lv.Slots), lv.Capacity)
		}
		cellSlots += len(lv.Slots)
	}
	if flatLen := flat.HistoryLen(cell); flatLen != units || cellSlots >= flatLen {
		t.Fatalf("tilted cell retains %d slots vs flat %d units — tilt must be smaller", cellSlots, flatLen)
	}
}

// oCell builds the o-layer cell key (a, b) for the snapshot test schema.
func oCell(t testing.TB, a, b int32) cube.CellKey {
	t.Helper()
	cb, err := cube.NewCuboid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cube.NewCellKey(cb, a, b)
}

// TestTiltedZeroPadsAbsentUnits stops feeding one o-cell mid-stream and
// asserts its frame keeps advancing on zero regressions, so the finest
// trend keeps answering without gap errors (flat engines would reject).
func TestTiltedZeroPadsAbsentUnits(t *testing.T) {
	cfg := tiltConfig(t)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Units 0-1: both halves of the grid. Units 2-3: only cells under
	// o-cell (1,1) — members (2..3, 2..3).
	for tick := int64(0); tick < 8; tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, float64(tick+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for tick := int64(8); tick < 16; tick++ {
		for a := int32(2); a < 4; a++ {
			for b := int32(2); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, float64(tick+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	quiet := oCell(t, 0, 0)
	if got := eng.HistoryLen(quiet); got != 4 {
		t.Fatalf("quiet cell retains %d units, want 4 (zero-padded)", got)
	}
	isb, err := eng.TrendQuery(quiet, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The last two units saw no data for this cell: a zero regression.
	if isb.Base != 0 || isb.Slope != 0 {
		t.Fatalf("padded trend = %v, want zero line", isb)
	}
	if isb.Tb != 8 || isb.Te != 15 {
		t.Fatalf("padded trend interval [%d,%d], want [8,15]", isb.Tb, isb.Te)
	}
}

// TestShardedTiltedMatchesSingle is the tilt extension of
// TestShardedSnapshotMatchesSingle: the merged frame set must be bitwise
// identical to the single engine's at several shard counts.
func TestShardedTiltedMatchesSingle(t *testing.T) {
	cfg := tiltConfig(t)
	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 83 // 20 full units + a partial one
	ingestGrid(t, single.Ingest, 0, ticks)
	want := single.Snapshot()
	if want == nil || want.Frames == nil || len(want.Frames) == 0 {
		t.Fatalf("single engine published no frames: %+v", want)
	}

	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seng, err := NewShardedEngine(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer seng.Close()
			ingestGrid(t, seng.Ingest, 0, ticks)
			got := seng.Snapshot()
			if got == nil || got.Unit != want.Unit {
				t.Fatalf("snapshot = %+v, want unit %d", got, want.Unit)
			}
			if !reflect.DeepEqual(got.Frames, want.Frames) {
				t.Fatal("merged frames differ from single engine")
			}
			if !reflect.DeepEqual(got.History, want.History) {
				t.Fatal("merged derived history differs from single engine")
			}
			if !reflect.DeepEqual(got.Alerts, want.Alerts) {
				t.Fatalf("alerts differ:\n%+v\nvs\n%+v", got.Alerts, want.Alerts)
			}
			// Routed trend queries agree too.
			cell := oCell(t, 1, 0)
			a, err := seng.TrendQueryAt(cell, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := single.TrendQueryAt(cell, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("sharded hour trend %v vs single %v", a, b)
			}
		})
	}
}

// TestTiltedCheckpointRoundTrip checkpoints a tilted engine mid-stream,
// restores into a fresh engine, and asserts the continuation is bitwise
// identical to the uninterrupted run.
func TestTiltedCheckpointRoundTrip(t *testing.T) {
	cfg := tiltConfig(t)
	golden, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, golden.Ingest, 0, 90)
	ingestGrid(t, interrupted.Ingest, 0, 50)

	cp := interrupted.Checkpoint()
	if len(cp.Tilt) == 0 {
		t.Fatal("tilted checkpoint carries no frames")
	}
	// The JSON round trip is what streamd does.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := json.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, resumed.Ingest, 50, 90)
	if _, err := golden.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	a, b := golden.Snapshot(), resumed.Snapshot()
	if !reflect.DeepEqual(a.Frames, b.Frames) {
		t.Fatal("resumed frames diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatal("resumed history diverges from the uninterrupted run")
	}
}

// TestFlatCheckpointSeedsTiltedEngine restores a pre-tilt (flat-history)
// checkpoint into a tilt-configured engine: frames must reseed from the
// replayed history and keep promoting from there.
func TestFlatCheckpointSeedsTiltedEngine(t *testing.T) {
	flatCfg := tiltConfig(t)
	flatCfg.TiltLevels = nil
	flat, err := NewEngine(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, flat.Ingest, 0, 50) // 12 closed units
	cp := flat.Checkpoint()
	if len(cp.Tilt) != 0 {
		t.Fatal("flat checkpoint must not carry frames")
	}

	cfg := tiltConfig(t)
	tilted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tilted.Restore(cp); err != nil {
		t.Fatal(err)
	}
	cell := oCell(t, 0, 1)
	// The flat history retained all 12 units; the seeded frame promotes
	// them, so hours exist immediately after restore.
	if _, err := tilted.TrendQueryAt(cell, 1, 2); err != nil {
		t.Fatalf("no hour trend after seeding: %v", err)
	}
	// And the continuation matches an engine that was tilted all along.
	golden, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, golden.Ingest, 0, 90)
	ingestGrid(t, tilted.Ingest, 50, 90)
	if _, err := golden.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := tilted.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Snapshot().Frames, tilted.Snapshot().Frames) {
		t.Fatal("seeded engine diverges from the always-tilted run")
	}
}

// TestTiltedCheckpointLoadsIntoFlatEngine goes the other way: the derived
// finest-level history in a v3 checkpoint restores into a flat engine.
func TestTiltedCheckpointLoadsIntoFlatEngine(t *testing.T) {
	cfg := tiltConfig(t)
	tilted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, tilted.Ingest, 0, 50)
	cp := tilted.Checkpoint()

	flatCfg := cfg
	flatCfg.TiltLevels = nil
	flat, err := NewEngine(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Restore(cp); err != nil {
		t.Fatal(err)
	}
	cell := oCell(t, 0, 0)
	if got, want := flat.HistoryLen(cell), tilted.HistoryLen(cell); got != want {
		t.Fatalf("flat history %d units, tilted finest level %d", got, want)
	}
	a, err := flat.TrendQuery(cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tilted.TrendQuery(cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cross-loaded trend %v vs %v", a, b)
	}
}

// TestShardedTiltedCheckpointRepartitions round-trips a tilted sharded
// checkpoint across shard counts.
func TestShardedTiltedCheckpointRepartitions(t *testing.T) {
	cfg := tiltConfig(t)
	src, err := NewShardedEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ingestGrid(t, src.Ingest, 0, 50)
	scp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(scp.Tilt) == 0 {
		t.Fatal("sharded tilted checkpoint carries no frames")
	}

	for _, shards := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dst, err := NewShardedEngine(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if err := dst.Restore(scp); err != nil {
				t.Fatal(err)
			}
			ingestGrid(t, dst.Ingest, 50, 90)
			if _, err := dst.Flush(); err != nil {
				t.Fatal(err)
			}
			golden, err := NewShardedEngine(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer golden.Close()
			ingestGrid(t, golden.Ingest, 0, 90)
			if _, err := golden.Flush(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden.Snapshot().Frames, dst.Snapshot().Frames) {
				t.Fatal("repartitioned frames diverge")
			}
		})
	}
}

// TestRestoreRejectsCorruptHistory is the checkpoint-validation bugfix:
// duplicate or out-of-order history units must fail Restore with
// ErrConfig instead of silently poisoning later TrendQuery calls — in
// both history modes.
func TestRestoreRejectsCorruptHistory(t *testing.T) {
	for _, mode := range []string{"flat", "tilted"} {
		t.Run(mode, func(t *testing.T) {
			cfg := tiltConfig(t)
			if mode == "flat" {
				cfg.TiltLevels = nil
			}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestGrid(t, src.Ingest, 0, 20)
			good := src.Checkpoint()
			if len(good.History) == 0 || len(good.History[0].Entries) < 3 {
				t.Fatalf("checkpoint too small to corrupt: %+v", good)
			}

			corrupt := []struct {
				name string
				mut  func(cp *Checkpoint)
			}{
				{"duplicate unit", func(cp *Checkpoint) {
					cp.History[0].Entries[1].Unit = cp.History[0].Entries[0].Unit
				}},
				{"out of order", func(cp *Checkpoint) {
					e := cp.History[0].Entries
					e[0].Unit, e[1].Unit = e[1].Unit, e[0].Unit
				}},
				{"unit beyond open", func(cp *Checkpoint) {
					e := cp.History[0].Entries
					e[len(e)-1].Unit = cp.Unit + 3
				}},
				{"negative unit", func(cp *Checkpoint) {
					cp.History[0].Entries[0].Unit = -1
				}},
			}
			for _, tc := range corrupt {
				cp := copyCheckpoint(t, good)
				tc.mut(cp)
				dst, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := dst.Restore(cp); !errors.Is(err, ErrConfig) {
					t.Fatalf("%s: Restore = %v, want ErrConfig", tc.name, err)
				}
			}
			// The untouched checkpoint still restores.
			dst, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(copyCheckpoint(t, good)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreRejectsCorruptFrames mutates the v3 frame records.
func TestRestoreRejectsCorruptFrames(t *testing.T) {
	cfg := tiltConfig(t)
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, src.Ingest, 0, 20)
	good := src.Checkpoint()
	if len(good.Tilt) == 0 {
		t.Fatal("no frames to corrupt")
	}
	corrupt := []struct {
		name string
		mut  func(cp *Checkpoint)
	}{
		{"frame beyond open unit", func(cp *Checkpoint) { cp.Tilt[0].Base++ }},
		{"negative base", func(cp *Checkpoint) {
			cp.Tilt[0].Base = -1
			cp.Tilt[0].Frame.Pushed = cp.Unit + 1
		}},
		{"unit tick mismatch", func(cp *Checkpoint) { cp.Tilt[0].Frame.UnitTicks++ }},
		{"slot ordinal corruption", func(cp *Checkpoint) { cp.Tilt[0].Frame.Levels[0].Slots[0].Unit += 7 }},
	}
	for _, tc := range corrupt {
		cp := copyCheckpoint(t, good)
		tc.mut(cp)
		dst, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(cp); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: Restore = %v, want ErrConfig", tc.name, err)
		}
	}
}

// copyCheckpoint deep-copies through the JSON wire form, exactly like a
// checkpoint file would round-trip.
func copyCheckpoint(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	out := &Checkpoint{}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// BenchmarkTiltedIngest measures the tilted hot path and reports the
// bounded-memory invariant: slots per cell stays at the chain capacity no
// matter how many units stream through, where flat history scales with
// HistoryUnits (and unbounded retention would scale with units ingested).
func BenchmarkTiltedIngest(b *testing.B) {
	for _, mode := range []string{"flat", "tilted"} {
		b.Run(mode, func(b *testing.B) {
			cfg := tiltConfig(b)
			cfg.PublishSnapshots = false
			if mode == "flat" {
				cfg.TiltLevels = nil
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			members := make([][]int32, 0, 16)
			for a := int32(0); a < 4; a++ {
				for bb := int32(0); bb < 4; bb++ {
					members = append(members, []int32{a, bb})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			tick := int64(0)
			for i := 0; i < b.N; i++ {
				m := members[i%len(members)]
				if i%len(members) == 0 && i > 0 {
					tick++
				}
				if _, err := eng.Ingest(m, tick, float64(i%97)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			units := eng.UnitsDone()
			if mode == "tilted" {
				inUse, capacity := eng.TiltSlots()
				cells := len(eng.frames)
				if cells > 0 {
					b.ReportMetric(float64(inUse)/float64(cells), "slots/cell")
				}
				if inUse > capacity {
					b.Fatalf("slots in use %d exceed capacity %d after %d units", inUse, capacity, units)
				}
			} else {
				var entries int
				for _, h := range eng.history {
					entries += len(h)
				}
				if n := len(eng.history); n > 0 {
					b.ReportMetric(float64(entries)/float64(n), "slots/cell")
				}
			}
			b.ReportMetric(float64(units), "units")
		})
	}
}

// TestTiltedStateBoundedOverLongRun pins the acceptance criterion
// directly: after hundreds of units, per-cell state is the frame
// capacity, not the unit count.
func TestTiltedStateBoundedOverLongRun(t *testing.T) {
	cfg := tiltConfig(t)
	cfg.PublishSnapshots = false
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const units = 300
	for u := int64(0); u < units; u++ {
		tick := u * int64(cfg.TicksPerUnit)
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, float64(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	probe, err := tilt.NewUnitFrame(cfg.TiltLevels)
	if err != nil {
		t.Fatal(err)
	}
	perCellCap := probe.SlotCapacity()
	inUse, capacity := eng.TiltSlots()
	cells := len(eng.frames)
	if cells == 0 {
		t.Fatal("no frames after long run")
	}
	if inUse > capacity || capacity != cells*perCellCap {
		t.Fatalf("slots %d of %d (cells %d × cap %d) after %d units", inUse, capacity, cells, perCellCap, units)
	}
	if perCellCap >= units {
		t.Fatalf("test is vacuous: capacity %d ≥ units %d", perCellCap, units)
	}
}
