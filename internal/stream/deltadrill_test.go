package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
)

func TestDeltaDrillAcrossUnits(t *testing.T) {
	s := smallSchema(t)
	eng, err := NewEngine(Config{
		Schema:       s,
		TicksPerUnit: 5,
		Threshold:    exception.Global(1e9),
		Delta:        &exception.Delta{MinSlopeChange: 2},
		DeltaDrill:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedUnit := func(slope float64) *UnitResult {
		t.Helper()
		start := eng.unitStart(eng.Unit())
		for i := int64(0); i < 5; i++ {
			if _, err := eng.Ingest([]int32{0, 0}, start+i, slope*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ur, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return ur
	}
	ur0 := feedUnit(1)
	if ur0.Delta != nil {
		t.Fatal("first unit has no delta base")
	}
	ur1 := feedUnit(6) // change 5 ≥ 2 at every level
	if ur1.Delta == nil {
		t.Fatal("second unit must carry a delta cube")
	}
	if len(ur1.Delta.Exceptions) == 0 {
		t.Fatal("slope jump must produce delta exceptions")
	}
	mKey := cube.NewCellKey(s.MLayer(), 0, 0)
	dc, ok := ur1.Delta.Exceptions[mKey]
	if !ok {
		t.Fatal("m-cell delta missing")
	}
	if dc.SlopeChange() < 4.9 || dc.SlopeChange() > 5.1 {
		t.Fatalf("slope change = %g, want ≈5", dc.SlopeChange())
	}
	ur2 := feedUnit(6.1) // change 0.1 < 2
	if ur2.Delta == nil {
		t.Fatal("delta cube should exist for adjacent units")
	}
	if len(ur2.Delta.Exceptions) != 0 {
		t.Fatal("small change must not be exceptional")
	}
	// A unit gap resets the delta base.
	var _ *core.DeltaResult = ur2.Delta
	start := eng.unitStart(eng.Unit() + 1) // skip a unit
	if _, err := eng.Ingest([]int32{0, 0}, start, 1); err != nil {
		t.Fatal(err)
	}
	ur4, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ur4.Delta != nil {
		t.Fatal("delta must reset across a gap")
	}
}
