package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
// level answers TrendQuery exactly like a one-level chain over the same
// window, (b) coarser levels answer TrendQueryAt, and (c) total state
// stays bounded by the chain's slot capacity while a one-level chain
// long enough to hold every unit keeps growing.
func TestTiltedHistoryPromotesAndBounds(t *testing.T) {
	cfg := tiltConfig(t)
	flatCfg := cfg
	flatCfg.TiltLevels = []tilt.Level{{Name: "unit", Multiple: 1, Slots: 1024}}
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
		t.Fatalf("a one-level chain must reject coarse levels: %v", err)
	}

	// (c) Bounded state: every frame is within capacity, while the flat
	// twin has accumulated every unit.
	inUse, capacity := tilted.TiltSlots()
	if inUse == 0 || inUse > capacity {
		t.Fatalf("tilt slots %d of %d", inUse, capacity)
	}
	snap := tilted.Snapshot()
	perCell := snap.FrameOf(cell)
	if perCell == nil {
		t.Fatal("snapshot has no frame for the o-cell")
	}
	var cellSlots int
	for i, lv := range perCell.Frame.Levels {
		if c := snap.Chain[i]; len(lv.Slots) > c.Slots {
			t.Fatalf("level %q holds %d slots, cap %d", c.Name, len(lv.Slots), c.Slots)
		}
		cellSlots += len(lv.Slots)
	}
	if flatLen := flat.HistoryLen(cell); flatLen != units || cellSlots >= flatLen {
		t.Fatalf("tilted cell retains %d slots vs flat %d units — tilt must be smaller", cellSlots, flatLen)
	}
}

// TestFinestLevelIndependentOfChain is the one-history property: over
// random gappy streams (cells that come and go, units nobody reports in),
// the history a one-level chain {unit,1,N} keeps equals, bitwise and after
// every unit, the last N finest slots of a multi-level chain whose finest
// level retains at least N — at 1, 4 and 7 shards.
// What the coarser levels add never shows at unit granularity.
func TestFinestLevelIndependentOfChain(t *testing.T) {
	const n, units = 6, 40
	oneLevel := []tilt.Level{{Name: "unit", Multiple: 1, Slots: n}}
	multi := []tilt.Level{{Name: "q", Multiple: 1, Slots: n + 3}, {Name: "h", Multiple: 4, Slots: 3}, {Name: "d", Multiple: 2, Slots: 2}}
	for seed := int64(1); seed <= 5; seed++ {
		// history[u][cell] is the reference: the one-level chain at one
		// shard, after unit u.
		var history []map[cube.CellKey][]HistoryPoint
		for _, variant := range []struct {
			chain  []tilt.Level
			shards int
		}{{oneLevel, 1}, {multi, 1}, {oneLevel, 4}, {multi, 4}, {multi, 7}} {
			cfg := tiltConfig(t)
			cfg.TiltLevels = variant.chain
			eng, err := NewEngine(withShards(cfg, variant.shards))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			r := rand.New(rand.NewSource(seed))
			for u := int64(0); u < units; u++ {
				silent := r.Float64() < 0.15
				for a := int32(0); a < 4; a++ {
					for b := int32(0); b < 4; b++ {
						active := r.Float64() < 0.6
						for k := int64(0); k < 4; k++ {
							v, skip := r.NormFloat64()*3, r.Float64() < 0.3
							if silent || !active || skip {
								continue
							}
							if _, err := eng.Ingest([]int32{a, b}, u*4+k, v); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if _, err := eng.AdvanceTo(u + 1); err != nil {
					t.Fatal(err)
				}
				got := make(map[cube.CellKey][]HistoryPoint)
				snap := eng.Snapshot()
				for _, f := range snap.Frames {
					key := f.Key()
					h := snap.HistoryOf(key)
					got[key] = h[max(0, len(h)-n):]
				}
				if len(history) <= int(u) {
					history = append(history, got)
				} else if !reflect.DeepEqual(got, history[u]) {
					t.Fatalf("seed %d, %d levels at %d shards, unit %d: finest history\n %+v\nwant\n %+v",
						seed, len(variant.chain), variant.shards, u, got, history[u])
				}
			}
		}
	}
}

// TestSlopeChangeAfterQuietUnit pins the absent-unit decision for change
// alerts: a cell returning after a unit it sat out is compared against
// that unit's zero regression — under the default chain exactly as under
// a multi-level one (the flat history used to skip the comparison).
func TestSlopeChangeAfterQuietUnit(t *testing.T) {
	var alerts [][]Alert
	for _, chain := range [][]tilt.Level{nil, testTiltLevels()} {
		cfg := tiltConfig(t)
		cfg.TiltLevels = chain
		cfg.Threshold = exception.Global(1e9) // slope-change alerts only
		cfg.Delta = &exception.Delta{MinSlopeChange: 1.5}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []Alert
		for _, u := range []int64{0, 2, 3} { // unit 1 is quiet
			for k := int64(0); k < 4; k++ {
				urs, err := eng.Ingest([]int32{0, 0}, u*4+k, 2*float64(k))
				if err != nil {
					t.Fatal(err)
				}
				for _, ur := range urs {
					got = append(got, ur.Alerts...)
				}
			}
		}
		ur, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		alerts = append(alerts, append(got, ur.Alerts...))
	}
	// Slope 2 in unit 0, the zero line in unit 1, slope 2 again in units 2
	// and 3: only unit 2 moved by more than 1.5 against its predecessor.
	// (The quiet unit itself has no o-layer cell to alert on.)
	if len(alerts[0]) != 1 || alerts[0][0].Kind != SlopeChange || alerts[0][0].Unit != 2 {
		t.Fatalf("default chain alerts = %+v, want one slope-change at unit 2", alerts[0])
	}
	if !reflect.DeepEqual(alerts[0], alerts[1]) {
		t.Fatalf("default chain alerts %+v, multi-level chain %+v", alerts[0], alerts[1])
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
// trend keeps answering across the quiet units.
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
			seng, err := NewEngine(withShards(cfg, shards))
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

	cp := checkpointOf(t, interrupted)
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
}

// TestFlatCheckpointSeedsTiltedEngine restores a checkpoint of one-level
// frames — the default chain's, and the form persist reads the flat
// history of a pre-frame file into — into a tilt-configured engine: frames
// must reseed from the finest level and keep promoting from there.
func TestFlatCheckpointSeedsTiltedEngine(t *testing.T) {
	flatCfg := tiltConfig(t)
	flatCfg.TiltLevels = nil
	flat, err := NewEngine(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, flat.Ingest, 0, 50) // 12 closed units
	cp := checkpointOf(t, flat)

	cfg := tiltConfig(t)
	tilted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tilted.Restore(cp); err != nil {
		t.Fatal(err)
	}
	cell := oCell(t, 0, 1)
	// The one level retained all 12 units; the seeded frame promotes
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

// TestTiltedCheckpointLoadsIntoFlatEngine goes the other way: a checkpoint
// kept under a multi-level chain restores into a default (one-level)
// engine, which reseeds its frames from the file's finest level.
func TestTiltedCheckpointLoadsIntoFlatEngine(t *testing.T) {
	cfg := tiltConfig(t)
	tilted, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, tilted.Ingest, 0, 50)
	cp := checkpointOf(t, tilted)

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
		t.Fatalf("default engine history %d units, tilted finest level %d", got, want)
	}
	for k := 1; k <= flat.HistoryLen(cell); k++ {
		a, err := flat.TrendQuery(cell, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tilted.TrendQuery(cell, k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("k=%d: cross-loaded trend %v vs %v", k, a, b)
		}
	}
	if _, err := flat.TrendQueryAt(cell, 1, 1); !errors.Is(err, ErrRecord) {
		t.Fatalf("level 1 on the default chain: %v, want ErrRecord", err)
	}
	// The reseeded engine keeps running: its one level keeps growing.
	ingestGrid(t, flat.Ingest, 50, 90)
	if _, err := flat.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := flat.HistoryLen(cell), tilted.HistoryLen(cell)+11; got != want {
		t.Fatalf("history after 11 more units = %d, want %d", got, want)
	}
}

// reseedExpectation is what restoring a frame record under another chain
// must produce: a fresh frame of that chain fed the record's retained
// finest slots in order (they are contiguous and end at the open unit).
func reseedExpectation(t *testing.T, chain []tilt.Level, rec CellFrame) (int64, tilt.UnitFrameState) {
	t.Helper()
	f, err := tilt.NewUnitFrame(chain)
	if err != nil {
		t.Fatal(err)
	}
	slots := rec.Frame.Levels[0].Slots
	for _, sl := range slots {
		if err := f.Push(sl.ISB); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Base + slots[0].Unit, f.State()
}

// TestCheckpointReseedsAcrossChains is the one upgrade rule: a checkpoint
// written under one level chain resumes under any other (calendar → log4x8
// used to fail in tilt.RestoreUnitFrame on the level mismatch). The
// destination's finest level is bitwise the source's retained finest
// slots (as many as its capacity holds), its coarser levels are what a
// fresh frame fed those units promotes, and it keeps running.
func TestCheckpointReseedsAcrossChains(t *testing.T) {
	logChain := tilt.LogarithmicLevels(4, 1, 8)
	chains := map[string][]tilt.Level{"calendar": tilt.CalendarLevels(), "log4x8": logChain, "default": nil}
	for _, tc := range []struct{ from, to string }{
		{"calendar", "log4x8"}, {"calendar", "default"}, {"default", "calendar"}, {"log4x8", "calendar"},
	} {
		t.Run(tc.from+"_to_"+tc.to, func(t *testing.T) {
			cfg := tiltConfig(t)
			cfg.TiltLevels = chains[tc.from]
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// 13 closed units. O-cell (0,1) sits units 5 and 6 out (padded
			// slots travel like any other); o-cell (1,1) joins at unit 12, so
			// its one-slot frame is a state of every chain and restores
			// exactly — to the same thing a reseed builds.
			for tick := int64(0); tick < 54; tick++ {
				for a := int32(0); a < 4; a++ {
					for b := int32(0); b < 4; b++ {
						quiet := a < 2 && b >= 2 && tick/4 >= 5 && tick/4 <= 6
						late := a >= 2 && b >= 2 && tick < 48
						if quiet || late {
							continue
						}
						if _, err := src.Ingest([]int32{a, b}, tick, float64(tick)*float64(a+2*b+1)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			cp := copyCheckpoint(t, checkpointOf(t, src))
			if len(cp.Tilt) != 4 {
				t.Fatalf("source checkpoint has %d frames, want 4", len(cp.Tilt))
			}

			cfg.TiltLevels = chains[tc.to]
			for _, shards := range []int{1, 3} {
				dst, err := NewEngine(withShards(cfg, shards))
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()
				if err := dst.Restore(cp); err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				got, err := dst.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Tilt) != len(cp.Tilt) {
					t.Fatalf("%d shards: %d frames restored, want %d", shards, len(got.Tilt), len(cp.Tilt))
				}
				for i, rec := range cp.Tilt {
					wantBase, want := reseedExpectation(t, dst.cfg.TiltLevels, rec)
					if got.Tilt[i].Base != wantBase || !reflect.DeepEqual(got.Tilt[i].Frame, want) {
						t.Fatalf("%d shards, cell %v: frame\n %+v (base %d)\nwant\n %+v (base %d)",
							shards, rec.Members, got.Tilt[i].Frame, got.Tilt[i].Base, want, wantBase)
					}
					// Finest level: the source's retained slots, the tail the
					// destination's capacity holds, same engine units, same bits.
					srcSlots, dstSlots := rec.Frame.Levels[0].Slots, got.Tilt[i].Frame.Levels[0].Slots
					srcSlots = srcSlots[max(0, len(srcSlots)-dst.cfg.TiltLevels[0].Slots):]
					if len(dstSlots) != len(srcSlots) {
						t.Fatalf("cell %v: %d finest slots, want %d", rec.Members, len(dstSlots), len(srcSlots))
					}
					for j := range srcSlots {
						if rec.Base+srcSlots[j].Unit != got.Tilt[i].Base+dstSlots[j].Unit || srcSlots[j].ISB != dstSlots[j].ISB {
							t.Fatalf("cell %v finest slot %d: %+v, want %+v", rec.Members, j, dstSlots[j], srcSlots[j])
						}
					}
				}
				// The reseeded engine keeps promoting, and its own checkpoint
				// restores exactly under its own chain.
				ingestGrid(t, dst.Ingest, 54, 90)
				if _, err := dst.Flush(); err != nil {
					t.Fatal(err)
				}
				again, err := dst.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				same, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := same.Restore(copyCheckpoint(t, again)); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(checkpointOf(t, same), copyCheckpoint(t, again)) {
					t.Fatalf("%d shards: same-chain restore is not exact", shards)
				}
			}
		})
	}
}

// TestShardedTiltedCheckpointRepartitions round-trips a tilted sharded
// checkpoint across shard counts.
func TestShardedTiltedCheckpointRepartitions(t *testing.T) {
	cfg := tiltConfig(t)
	src, err := NewEngine(withShards(cfg, 4))
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
			dst, err := NewEngine(withShards(cfg, shards))
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
			golden, err := NewEngine(withShards(cfg, 2))
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
// a frame record that is not an o-cell's history on this engine's unit
// grid must fail Restore with ErrConfig instead of restoring silently —
// as a phantom o-cell, or as a frame the first unit close then refuses —
// under the default chain and a multi-level one, at one shard and at four,
// where the refused frame routes to a shard after shard 0. (The flat
// history of a pre-frame file is checked where persist converts it into
// frames.)
func TestRestoreRejectsCorruptHistory(t *testing.T) {
	for _, mode := range []string{"flat", "tilted"} {
		t.Run(mode, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					testRestoreRejectsCorruptHistory(t, mode, shards)
				})
			}
		})
	}
}

func testRestoreRejectsCorruptHistory(t *testing.T, mode string, shards int) {
	cfg := withShards(tiltConfig(t), shards)
	if mode == "flat" {
		cfg.TiltLevels = nil
	}
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, src.Ingest, 0, 20)
	good := checkpointOf(t, src)
	if len(good.Tilt) == 0 || good.Tilt[0].Frame.Pushed < 3 {
		t.Fatalf("checkpoint too small to corrupt: %+v", good)
	}
	schema := cfg.Schema
	shardOf := func(members []int32) int {
		var m [cube.MaxDims]int32
		copy(m[:], members)
		return src.part.Hash(&m)
	}
	// The corrupted frame is the first one off shard 0, if any shard is.
	victim := 0
	for i := range good.Tilt {
		if shardOf(good.Tilt[i].Members) != 0 {
			victim = i
			break
		}
	}

	corrupt := []struct {
		name string
		mut  func(cf *CellFrame)
	}{
		{"m-layer cuboid", func(cf *CellFrame) {
			for d, dim := range schema.Dims {
				cf.Levels[d] = dim.MLevel
			}
		}},
		{"members outside the o-layer", func(cf *CellFrame) {
			cf.Members = []int32{999999, -7}
		}},
		{"shifted by one tick", func(cf *CellFrame) {
			st := &cf.Frame
			st.NextTb++
			for _, lv := range st.Levels {
				for j := range lv.Slots {
					lv.Slots[j].ISB.Tb++
					lv.Slots[j].ISB.Te++
				}
			}
		}},
	}
	offZero := 0
	for _, tc := range corrupt {
		cp := copyCheckpoint(t, good)
		tc.mut(&cp.Tilt[victim])
		if shardOf(cp.Tilt[victim].Members) != 0 {
			offZero++
		}
		dst, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(cp); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: Restore = %v, want ErrConfig", tc.name, err)
		}
		// The refusal came half-way through the shards' state: it sticks
		// until the untouched checkpoint restores.
		if _, err := dst.Flush(); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: Flush after a refused Restore = %v, want it to stick", tc.name, err)
		}
		if err := dst.Restore(copyCheckpoint(t, good)); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if shards > 1 && offZero == 0 {
		t.Fatal("every refused frame routes to shard 0; the test needs one that routes to another shard")
	}
}

// TestRestoreRejectsCorruptFrames mutates the frame records.
func TestRestoreRejectsCorruptFrames(t *testing.T) {
	cfg := tiltConfig(t)
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, src.Ingest, 0, 20)
	good := checkpointOf(t, src)
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

// BenchmarkTiltedIngest measures the hot path under the default one-level
// chain ("flat") and a multi-level one, and reports the bounded-memory
// invariant: slots per cell stays within the chain capacity no matter how
// many units stream through.
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
			inUse, capacity := eng.TiltSlots()
			if cells := len(eng.shards[0].frames); cells > 0 {
				b.ReportMetric(float64(inUse)/float64(cells), "slots/cell")
			}
			if inUse > capacity {
				b.Fatalf("slots in use %d exceed capacity %d after %d units", inUse, capacity, units)
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
	cells := len(eng.shards[0].frames)
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

// TestCheckpointAfterRestoreIsTheCut pins the one-cut invariant: frames
// are cut at a close or a Restore and a checkpoint cuts only the open
// unit's cells, so a checkpoint taken right after Restore, before any unit
// closes, is the restored document under the same chain, and under a
// foreign chain (the reseed) a fixed point of a second Restore and
// checkpoint. The restoring engines hold state of their own first, so a
// cut that is stale (that state's frames) or missing fails both legs.
func TestCheckpointAfterRestoreIsTheCut(t *testing.T) {
	cfg := tiltConfig(t)
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, src.Ingest, 0, 50)
	doc, err := src.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(doc)
	if err != nil {
		t.Fatal(err)
	}
	foreign := cfg
	foreign.TiltLevels = []tilt.Level{{Name: "q", Multiple: 1, Slots: 16}, {Name: "h", Multiple: 2, Slots: 3}}
	restored := func(cfg Config, shards int, cp *Checkpoint) []byte {
		t.Helper()
		e, err := NewEngine(withShards(cfg, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ingestGrid(t, e.Ingest, 0, 22)
		if err := e.Restore(cp); err != nil {
			t.Fatal(err)
		}
		out, err := e.AppendCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, shards := range []int{1, 3} {
		if got := restored(cfg, shards, cp); !bytes.Equal(got, doc) {
			t.Fatalf("%d shards: checkpoint after a same-chain Restore differs from the restored document", shards)
		}
		first := restored(foreign, shards, cp)
		reseeded, err := DecodeCheckpoint(first)
		if err != nil {
			t.Fatal(err)
		}
		if len(reseeded.Tilt) != len(cp.Tilt) {
			t.Fatalf("%d shards: reseeded checkpoint holds %d frames, the restored one %d", shards, len(reseeded.Tilt), len(cp.Tilt))
		}
		if second := restored(foreign, shards, reseeded); !bytes.Equal(second, first) {
			t.Fatalf("%d shards: checkpoint after a foreign-chain Restore is not a fixed point", shards)
		}
	}
}

// TestRestoreHandAssembledFrames pins Restore's rule for a frame list no
// engine wrote: any order is accepted, and an o-cell listed twice keeps
// the record listed last. The engine restored from such a list must cut
// and continue exactly like one restored from the canonical list that
// rule describes.
func TestRestoreHandAssembledFrames(t *testing.T) {
	cfg := tiltConfig(t)
	cfg.PublishSnapshots = false
	cut := func(scale float64) *Checkpoint {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ingestGrid(t, func(m []int32, tick int64, v float64) ([]*Snapshot, error) {
			return e.Ingest(m, tick, scale*v+1)
		}, 0, 50)
		return checkpointOf(t, e)
	}
	a, b := cut(1), cut(3)
	if len(a.Tilt) < 3 || len(b.Tilt) != len(a.Tilt) {
		t.Fatalf("checkpoints carry %d and %d frames, want at least 3 each", len(a.Tilt), len(b.Tilt))
	}
	if reflect.DeepEqual(a.Tilt[1], b.Tilt[1]) {
		t.Fatal("test is vacuous: both records of the repeated cell are equal")
	}
	// Reversed, with the second cell's frame from a, then b's record for it
	// last of all.
	hand := *a
	hand.Tilt = nil
	for i := len(a.Tilt) - 1; i >= 0; i-- {
		hand.Tilt = append(hand.Tilt, a.Tilt[i])
	}
	hand.Tilt = append(hand.Tilt, b.Tilt[1])
	want := *a
	want.Tilt = append([]CellFrame(nil), a.Tilt...)
	want.Tilt[1] = b.Tilt[1]

	run := func(shards int, cp *Checkpoint) (restored, continued []byte) {
		t.Helper()
		e, err := NewEngine(withShards(cfg, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if restored, err = e.AppendCheckpoint(nil); err != nil {
			t.Fatal(err)
		}
		ingestGrid(t, e.Ingest, 50, 90)
		if continued, err = e.AppendCheckpoint(nil); err != nil {
			t.Fatal(err)
		}
		return restored, continued
	}
	wantRestored, wantContinued := run(1, &want)
	for _, shards := range []int{1, 3} {
		restored, continued := run(shards, &hand)
		if !bytes.Equal(restored, wantRestored) {
			t.Fatalf("%d shards: a hand-assembled frame list restores to another state than its canonical form", shards)
		}
		if !bytes.Equal(continued, wantContinued) {
			t.Fatalf("%d shards: a hand-assembled frame list continues differently from its canonical form", shards)
		}
	}
}

// TestMergeCheckpointsHandAssembledParts pins MergeCheckpoints' rule for
// parts no engine cut: parts that share only a frame, and a part that
// lists a cell twice, are refused; parts in reverse order are accepted and
// merge into the canonical checkpoint, the callers' lists left as they
// were.
func TestMergeCheckpointsHandAssembledParts(t *testing.T) {
	cfg := tiltConfig(t)
	cfg.PublishSnapshots = false
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestGrid(t, e.Ingest, 0, 50)
	cp := checkpointOf(t, e)
	nc, nf := len(cp.Cells)/2, len(cp.Tilt)/2
	if nc < 1 || nf < 1 {
		t.Fatalf("checkpoint carries %d cells and %d frames, want at least 2 each", len(cp.Cells), len(cp.Tilt))
	}
	part := func(cells []CellState, frames []CellFrame) *Checkpoint {
		p := *cp
		p.Cells, p.Tilt = cells, frames
		return &p
	}
	twice := append([]CellState{cp.Cells[0]}, cp.Cells...)
	for what, parts := range map[string][]*Checkpoint{
		"parts sharing only a frame":  {part(cp.Cells[:nc], cp.Tilt[:nf+1]), part(cp.Cells[nc:], cp.Tilt[nf:])},
		"a part listing a cell twice": {part(twice, cp.Tilt)},
	} {
		if _, err := MergeCheckpoints(parts); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "share") {
			t.Errorf("%s: %v, want a refusal naming what the parts share", what, err)
		}
	}
	reversed := func(cells []CellState, frames []CellFrame) *Checkpoint {
		p := part(slices.Clone(cells), slices.Clone(frames))
		slices.Reverse(p.Cells)
		slices.Reverse(p.Tilt)
		return p
	}
	want := checkpointDoc(t, cp)
	for _, parts := range [][]*Checkpoint{
		{reversed(cp.Cells, cp.Tilt)},
		{reversed(cp.Cells[nc:], cp.Tilt[:nf]), reversed(cp.Cells[:nc], cp.Tilt[nf:])},
	} {
		before := checkpointDoc(t, parts[0])
		got, err := MergeCheckpoints(parts)
		if err != nil {
			t.Fatalf("%d reversed parts: %v", len(parts), err)
		}
		if !bytes.Equal(checkpointDoc(t, got), want) {
			t.Errorf("%d reversed parts merge into another checkpoint than the canonical one", len(parts))
		}
		if !bytes.Equal(checkpointDoc(t, parts[0]), before) {
			t.Errorf("%d reversed parts: merging changed the caller's part", len(parts))
		}
	}
}

// TestPublishedFramesNeverChange keeps every snapshot a calendar-chain
// engine on two shards publishes — through quiet units, o-cells that
// appear mid-run, hour and day promotions, and two Restores from one
// checkpoint that shares its slots with the published frames — and
// requires each to encode at the end to the bytes it encoded to when it
// was published: a close pushes successors and never writes a record.
func TestPublishedFramesNeverChange(t *testing.T) {
	cfg := tiltConfig(t)
	cfg.TiltLevels = tilt.CalendarLevels()
	eng, err := NewEngine(withShards(cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var kept []*Snapshot
	var docs [][]byte
	// unit ingests unit u — nothing in every seventh, else the cells whose
	// first member is below width — and closes it.
	unit := func(u int64, width int32, scale float64) {
		t.Helper()
		if u%7 != 3 {
			for tick := u * int64(cfg.TicksPerUnit); tick < (u+1)*int64(cfg.TicksPerUnit); tick++ {
				for a := int32(0); a < width; a++ {
					for b := int32(0); b < 4; b++ {
						v := scale * float64(tick%11) * float64(a+2*b+1)
						if _, err := eng.Ingest([]int32{a, b}, tick, v); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		if _, err := eng.AdvanceTo(u + 1); err != nil {
			t.Fatal(err)
		}
		s := eng.Snapshot()
		if s == nil || s.Unit != u {
			t.Fatalf("unit %d not published", u)
		}
		doc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		kept, docs = append(kept, s), append(docs, doc)
	}
	// o-cells (0,*) first; (1,*) join at unit 30.
	for u := int64(0); u < 60; u++ {
		width := int32(4)
		if u < 30 {
			width = 2
		}
		unit(u, width, 1)
	}
	cp := checkpointOf(t, eng)
	if !reflect.DeepEqual(cp.Tilt, eng.Snapshot().Frames) {
		t.Fatal("the checkpoint's frames are not the published ones")
	}
	cp.Tilt = eng.Snapshot().Frames
	for pass, scale := range []float64{2, 3} {
		if err := eng.Restore(cp); err != nil {
			t.Fatal(err)
		}
		end := int64(70)
		if pass == 1 {
			end = 130
		}
		for u := int64(60); u < end; u++ {
			unit(u, 4, scale)
		}
	}
	last := kept[len(kept)-1]
	if f := last.Frames[0].Frame; f.Levels[2].Next < 1 || len(last.Frames) != 4 {
		t.Fatalf("test is vacuous: %d frames, %d days completed", len(last.Frames), f.Levels[2].Next)
	}
	for i, s := range kept {
		doc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, docs[i]) {
			t.Fatalf("the snapshot of unit %d changed after it was published", s.Unit)
		}
	}
}
