package tilt

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/regression"
)

// gappySeries is one randomly gapped stream: present[i] says whether tick
// start+i carries a reading, vals[i] is that reading.
type gappySeries struct {
	start   int64
	present []bool
	vals    []float64
}

func randomGappy(r *rand.Rand) gappySeries {
	n := 1 + r.Intn(300)
	g := gappySeries{
		start:   int64(r.Intn(100)) - 50,
		present: make([]bool, n),
		vals:    make([]float64, n),
	}
	for i := range g.present {
		g.present[i] = r.Float64() < 0.6
		g.vals[i] = r.NormFloat64() * 10
	}
	return g
}

// TestFrameAdvanceToMatchesZeroAdds is the frame-level mirror of the
// accumulator's AdvanceTo quick-check: feeding a gappy series through
// AdvanceTo gaps must leave every retained slot at every level — and the
// partial accumulator — bit-for-bit identical to feeding the same series
// with explicit Add(t, 0) calls on the missing ticks.
func TestFrameAdvanceToMatchesZeroAdds(t *testing.T) {
	levels := []Level{
		{Name: "u", Multiple: 4, Slots: 6},
		{Name: "v", Multiple: 3, Slots: 4},
		{Name: "w", Multiple: 2, Slots: 3},
	}
	r := rand.New(rand.NewSource(41))
	check := func() bool {
		g := randomGappy(r)
		bulk := MustNew(levels, g.start)
		loop := MustNew(levels, g.start)
		for i := range g.present {
			tick := g.start + int64(i)
			if g.present[i] {
				bulk.AdvanceTo(tick)
				if err := bulk.Add(tick, g.vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			// The looped twin registers the gap ticks explicitly.
			if g.present[i] {
				if err := loop.Add(tick, g.vals[i]); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := loop.Add(tick, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Close the trailing gap so both frames consumed every tick.
		bulk.AdvanceTo(g.start + int64(len(g.present)))
		if bulk.Ticks() != loop.Ticks() {
			t.Fatalf("ticks %d vs %d", bulk.Ticks(), loop.Ticks())
		}
		for lv := 0; lv < bulk.Levels(); lv++ {
			if bulk.Completed(lv) != loop.Completed(lv) {
				t.Fatalf("level %d completed %d vs %d", lv, bulk.Completed(lv), loop.Completed(lv))
			}
			if !reflect.DeepEqual(bulk.SlotsAt(lv), loop.SlotsAt(lv)) {
				t.Fatalf("level %d slots differ:\n%v\nvs\n%v", lv, bulk.SlotsAt(lv), loop.SlotsAt(lv))
			}
		}
		bp, bok := bulk.Partial()
		lp, lok := loop.Partial()
		return bok == lok && bp == lp
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameGappyMatchesAccumulatorReplay is the property the stream
// engine's zero-usage convention rests on: a tilt frame over a gappy
// series must agree, slot for slot, with brute-force regression.
// Accumulator replays of the corresponding tick ranges with the gaps
// filled by zeros.
func TestFrameGappyMatchesAccumulatorReplay(t *testing.T) {
	levels := []Level{
		{Name: "u", Multiple: 5, Slots: 8},
		{Name: "v", Multiple: 2, Slots: 4},
	}
	r := rand.New(rand.NewSource(43))
	check := func() bool {
		g := randomGappy(r)
		f := MustNew(levels, g.start)
		// Dense replica of the gappy stream: zeros where absent.
		dense := make([]float64, len(g.vals))
		for i := range g.vals {
			if g.present[i] {
				dense[i] = g.vals[i]
				f.AdvanceTo(g.start + int64(i))
				if err := f.Add(g.start+int64(i), g.vals[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.AdvanceTo(g.start + int64(len(dense)))

		for lv := 0; lv < f.Levels(); lv++ {
			span := f.Span(lv)
			for _, slot := range f.SlotsAt(lv) {
				lo := g.start + slot.Unit*span
				acc := regression.NewAccumulator(lo)
				for tick := lo; tick < lo+span; tick++ {
					if err := acc.Add(tick, dense[tick-g.start]); err != nil {
						t.Fatal(err)
					}
				}
				want, err := acc.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if slot.ISB.Tb != want.Tb || slot.ISB.Te != want.Te {
					t.Fatalf("level %d unit %d: interval %v, replay %v", lv, slot.Unit, slot.ISB, want)
				}
				// The finest level accumulates exactly like the replay;
				// promoted levels go through Theorem 3.3, which is lossless
				// up to float re-association.
				if lv == 0 {
					if slot.ISB != want {
						t.Fatalf("level 0 unit %d: frame %v, replay %v (want bitwise)", slot.Unit, slot.ISB, want)
					}
				} else if !almostEq(slot.ISB.Slope, want.Slope, 1e-7) || !almostEq(slot.ISB.Base, want.Base, 1e-7) {
					t.Fatalf("level %d unit %d: frame %v, replay %v", lv, slot.Unit, slot.ISB, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAdvanceToNoOp(t *testing.T) {
	f := MustNew([]Level{{Name: "u", Multiple: 3, Slots: 4}}, 10)
	if err := f.Add(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(11, 2); err != nil {
		t.Fatal(err)
	}
	f.AdvanceTo(12) // == NextTick
	f.AdvanceTo(5)  // before start
	if f.Ticks() != 2 || f.NextTick() != 12 {
		t.Fatalf("no-op AdvanceTo moved the frame: ticks=%d next=%d", f.Ticks(), f.NextTick())
	}
}

// TestUnitFrameStateRoundTrip drives a frame across promotions and
// evictions, snapshots its state, and asserts the restored frame is
// deeply identical and accepts the exact next unit.
func TestUnitFrameStateRoundTrip(t *testing.T) {
	levels := []Level{
		{Name: "q", Multiple: 1, Slots: 4},
		{Name: "h", Multiple: 4, Slots: 3},
		{Name: "d", Multiple: 2, Slots: 2},
	}
	f, err := NewUnitFrame(levels)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(u int64) regression.ISB {
		return regression.ISB{Tb: u * 10, Te: u*10 + 9, Base: float64(u), Slope: float64(u) / 7}
	}
	for u := int64(0); u < 23; u++ {
		if err := f.Push(unit(u)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.State()
	g, err := RestoreUnitFrame(levels, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("restored frame differs:\n%+v\nvs\n%+v", f, g)
	}
	// A decoder runs the check on every frame it reads.
	if n := testing.AllocsPerRun(100, func() { _ = CheckState(levels, &st) }); n != 0 {
		t.Fatalf("CheckState of a valid state allocates %v times", n)
	}
	if err := g.Push(unit(23)); err != nil {
		t.Fatalf("restored frame rejects the next unit: %v", err)
	}
	for lv := 0; lv < f.Levels(); lv++ {
		if !reflect.DeepEqual(f.SlotsAt(lv), st.Levels[lv].Slots) {
			t.Fatalf("state level %d does not mirror the frame", lv)
		}
	}
}

// TestRestoreUnitFrameRejectsCorruption feeds structurally broken states
// through every validation clause.
func TestRestoreUnitFrameRejectsCorruption(t *testing.T) {
	levels := []Level{
		{Name: "q", Multiple: 1, Slots: 4},
		{Name: "h", Multiple: 2, Slots: 3},
	}
	f, err := NewUnitFrame(levels)
	if err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < 9; u++ {
		if err := f.Push(regression.ISB{Tb: u * 5, Te: u*5 + 4, Base: 1}); err != nil {
			t.Fatal(err)
		}
	}
	good := f.State()
	corrupt := []struct {
		name string
		mut  func(st *UnitFrameState)
	}{
		{"level count", func(st *UnitFrameState) { st.Levels = st.Levels[:1] }},
		{"negative pushed", func(st *UnitFrameState) { st.Pushed = -1 }},
		{"pushed vs finest completions", func(st *UnitFrameState) { st.Pushed += 2 }},
		{"coarse completion arithmetic", func(st *UnitFrameState) { st.Levels[1].Next++ }},
		{"over-retained slots", func(st *UnitFrameState) {
			st.Levels[0].Slots = append(st.Levels[0].Slots, st.Levels[0].Slots...)
		}},
		{"slot ordinal gap", func(st *UnitFrameState) { st.Levels[0].Slots[0].Unit-- }},
		{"non-finite measure", func(st *UnitFrameState) {
			st.Levels[0].Slots[1].ISB.Slope = math.Inf(1)
		}},
		{"wrong slot span", func(st *UnitFrameState) { st.Levels[0].Slots[1].ISB.Te++ }},
		{"next unit misaligned", func(st *UnitFrameState) { st.NextTb += 3 }},
	}
	for _, tc := range corrupt {
		st := deepCopyState(good)
		tc.mut(&st)
		if _, err := RestoreUnitFrame(levels, st); err == nil {
			t.Fatalf("%s: corrupt state restored silently", tc.name)
		} else if !strings.Contains(err.Error(), "restore") {
			t.Fatalf("%s: error %v lacks restore context", tc.name, err)
		}
	}
	// The untouched state still restores.
	if _, err := RestoreUnitFrame(levels, deepCopyState(good)); err != nil {
		t.Fatal(err)
	}
}

func deepCopyState(st UnitFrameState) UnitFrameState {
	out := st
	out.Levels = make([]LevelStateRec, len(st.Levels))
	for i, lv := range st.Levels {
		out.Levels[i] = LevelStateRec{Next: lv.Next, Slots: append([]Slot(nil), lv.Slots...)}
	}
	return out
}
