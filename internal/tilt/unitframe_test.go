package tilt

import (
	"math"
	"testing"

	"repro/internal/regression"
	"repro/internal/timeseries"
)

func unitLevels() []Level {
	return []Level{
		{Name: "unit", Multiple: 1, Slots: 4},
		{Name: "four", Multiple: 4, Slots: 4},
		{Name: "sixteen", Multiple: 4, Slots: 2},
	}
}

func TestNewUnitFrameValidation(t *testing.T) {
	if _, err := NewUnitFrame(nil); err == nil {
		t.Fatal("expected empty-levels error")
	}
	if _, err := NewUnitFrame([]Level{{Name: "u", Multiple: 1, Slots: 0}}); err == nil {
		t.Fatal("expected slots error")
	}
	if _, err := NewUnitFrame([]Level{
		{Name: "u", Multiple: 1, Slots: 2},
		{Name: "v", Multiple: 0, Slots: 2},
	}); err == nil {
		t.Fatal("expected multiple error")
	}
	if _, err := NewUnitFrame([]Level{
		{Name: "u", Multiple: 1, Slots: 2},
		{Name: "v", Multiple: 3, Slots: 2},
	}); err == nil {
		t.Fatal("expected retention/promotion error")
	}
	// Level 0 Multiple is forced to 1 even when configured otherwise.
	f, err := NewUnitFrame([]Level{{Name: "u", Multiple: 99, Slots: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Push(regression.ISB{Tb: 0, Te: 4, Base: 1}); err != nil {
		t.Fatal(err)
	}
	if f.Completed(0) != 1 {
		t.Fatal("push must complete one level-0 unit")
	}
}

func TestUnitFramePushDiscipline(t *testing.T) {
	f, err := NewUnitFrame(unitLevels())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Push(regression.ISB{Tb: 0, Te: 9, Base: 1}); err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if err := f.Push(regression.ISB{Tb: 10, Te: 14, Base: 1}); err == nil {
		t.Fatal("expected tick-count mismatch")
	}
	// Gap.
	if err := f.Push(regression.ISB{Tb: 20, Te: 29, Base: 1}); err == nil {
		t.Fatal("expected adjacency error")
	}
	// Non-finite.
	if err := f.Push(regression.ISB{Tb: 10, Te: 19, Base: math.NaN()}); err == nil {
		t.Fatal("expected non-finite rejection")
	}
	// Inverted interval.
	if err := f.Push(regression.ISB{Tb: 19, Te: 10}); err == nil {
		t.Fatal("expected empty-interval rejection")
	}
	if err := f.Push(regression.ISB{Tb: 10, Te: 19, Base: 2}); err != nil {
		t.Fatal(err)
	}
	if f.State().Pushed != 2 {
		t.Fatalf("pushed = %d", f.State().Pushed)
	}
}

// The central invariant: a UnitFrame fed per-unit fits equals a Frame fed
// the raw ticks, slot for slot, at every level.
func TestUnitFrameEquivalentToRawFrame(t *testing.T) {
	const ticksPerUnit, units = 5, 32
	raw := timeseries.NewSynth(9).Linear(0, ticksPerUnit*units, 3, 0.1, 0.7)

	frameLevels := []Level{
		{Name: "unit", Multiple: ticksPerUnit, Slots: 4},
		{Name: "four", Multiple: 4, Slots: 4},
		{Name: "sixteen", Multiple: 4, Slots: 2},
	}
	rawFrame := MustNew(frameLevels, 0)
	for i, z := range raw.Values {
		if err := rawFrame.Add(int64(i), z); err != nil {
			t.Fatal(err)
		}
	}

	uf, err := NewUnitFrame(unitLevels())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < units; u++ {
		sub, err := raw.Slice(int64(u*ticksPerUnit), int64((u+1)*ticksPerUnit-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := uf.Push(regression.MustFit(sub)); err != nil {
			t.Fatal(err)
		}
	}

	for lvl := 0; lvl < 3; lvl++ {
		a, b := rawFrame.SlotsAt(lvl), uf.SlotsAt(lvl)
		if len(a) != len(b) {
			t.Fatalf("level %d slots: %d vs %d", lvl, len(a), len(b))
		}
		for i := range a {
			if a[i].Unit != b[i].Unit {
				t.Fatalf("level %d slot %d unit %d vs %d", lvl, i, a[i].Unit, b[i].Unit)
			}
			if !almostEq(a[i].ISB.Slope, b[i].ISB.Slope, 1e-9) || !almostEq(a[i].ISB.Base, b[i].ISB.Base, 1e-9) {
				t.Fatalf("level %d slot %d: %v vs %v", lvl, i, a[i].ISB, b[i].ISB)
			}
		}
		if rawFrame.Completed(lvl) != uf.Completed(lvl) {
			t.Fatalf("level %d completions differ", lvl)
		}
	}
	// Queries agree too.
	qa, err1 := rawFrame.Query(1, 2)
	qb, err2 := uf.Query(1, 2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !almostEq(qa.Slope, qb.Slope, 1e-9) {
		t.Fatalf("queries differ: %v vs %v", qa, qb)
	}
}

func TestUnitFrameQueryErrors(t *testing.T) {
	f, _ := NewUnitFrame(unitLevels())
	_ = f.Push(regression.ISB{Tb: 0, Te: 9, Base: 1})
	if _, err := f.Query(0, 2); err == nil {
		t.Fatal("expected too-few error")
	}
	if _, err := f.Query(9, 1); err == nil {
		t.Fatal("expected level error")
	}
	if _, err := f.Query(0, 0); err == nil {
		t.Fatal("expected k error")
	}
	if got, err := f.Query(0, 1); err != nil || got.Base != 1 {
		t.Fatalf("query = %v, %v", got, err)
	}
}

func TestUnitFrameAccessors(t *testing.T) {
	f, _ := NewUnitFrame(unitLevels())
	if f.Levels() != 3 {
		t.Fatal("levels")
	}
	if f.SlotCapacity() != 10 {
		t.Fatalf("capacity = %d", f.SlotCapacity())
	}
	for u := 0; u < 20; u++ {
		if err := f.Push(regression.ISB{Tb: int64(u * 10), Te: int64(u*10 + 9), Base: float64(u)}); err != nil {
			t.Fatal(err)
		}
	}
	if f.SlotsInUse() > f.SlotCapacity() {
		t.Fatal("retention exceeded")
	}
	if f.SlotsAt(-1) != nil || f.Completed(99) != 0 {
		t.Fatal("out-of-range accessors")
	}
}
