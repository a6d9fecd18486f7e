package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// oCell builds the o-layer cell key (a, b) for the snapshot test schema.
func oCell(t testing.TB, a, b int32) cube.CellKey {
	t.Helper()
	cb, err := cube.NewCuboid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cube.NewCellKey(cb, a, b)
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
