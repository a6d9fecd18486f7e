package core

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

func deltaInputs(members [][]int32, slopes []float64, tb, te int64) []Input {
	out := make([]Input, len(members))
	for i := range members {
		out[i] = Input{
			Members: members[i],
			Measure: regression.ISB{Tb: tb, Te: te, Base: 1, Slope: slopes[i]},
		}
	}
	return out
}

func TestDeltaCubingFindsChangedCells(t *testing.T) {
	s := testSchema(t, 2, 2, 2)
	members := [][]int32{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	// Previous quarter: all slopes 1. Current: one cell jumps to 5.
	prev := deltaInputs(members, []float64{1, 1, 1, 1}, 0, 9)
	cur := deltaInputs(members, []float64{1, 5, 1, 1}, 10, 19)
	res, err := DeltaCubing(s, cur, prev, exception.Delta{MinSlopeChange: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The changed m-cell (1,1) and all its ancestors changed by 4.
	mKey := cube.NewCellKey(s.MLayer(), 1, 1)
	dc, ok := res.Exceptions[mKey]
	if !ok {
		t.Fatalf("changed m-cell missing: %v", res.Exceptions)
	}
	if dc.SlopeChange() != 4 {
		t.Fatalf("slope change = %g, want 4", dc.SlopeChange())
	}
	// Ancestor at the o-layer: (1/2, 1/2) = (0, 0) — which also contains
	// the unchanged cell (0,0), so its change is still 4.
	oKey := cube.NewCellKey(s.OLayer(), 0, 0)
	if _, ok := res.Exceptions[oKey]; !ok {
		t.Fatal("changed o-ancestor missing")
	}
	// Unchanged cells are not exceptions.
	quiet := cube.NewCellKey(s.MLayer(), 2, 2)
	if _, bad := res.Exceptions[quiet]; bad {
		t.Fatal("unchanged cell retained")
	}
	// o-layer carries both windows for every cell.
	for _, dc := range res.OLayer {
		if !dc.HavePrev {
			t.Fatal("o-layer cells should have previous windows here")
		}
		if dc.Prev.Te+1 != dc.Cur.Tb {
			t.Fatal("window intervals must be adjacent")
		}
	}
}

func TestDeltaCubingNoPreviousWindow(t *testing.T) {
	s := testSchema(t, 2, 2, 2)
	cur := deltaInputs([][]int32{{0, 0}}, []float64{100}, 0, 9)
	res, err := DeltaCubing(s, cur, nil, exception.Delta{MinSlopeChange: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exceptions) != 0 {
		t.Fatal("first window can have no change exceptions")
	}
	for _, dc := range res.OLayer {
		if dc.HavePrev {
			t.Fatal("no previous window exists")
		}
		if dc.SlopeChange() != 0 {
			t.Fatal("change without previous must be 0")
		}
	}
}

func TestDeltaCubingNewCellNotExceptional(t *testing.T) {
	s := testSchema(t, 2, 2, 2)
	prev := deltaInputs([][]int32{{0, 0}}, []float64{1}, 0, 9)
	// Current window adds a brand-new steep cell in a different o-region;
	// it has no previous base, so it must not be a change exception.
	cur := deltaInputs([][]int32{{0, 0}, {3, 3}}, []float64{1, 50}, 10, 19)
	res, err := DeltaCubing(s, cur, prev, exception.Delta{MinSlopeChange: 2})
	if err != nil {
		t.Fatal(err)
	}
	newCell := cube.NewCellKey(s.MLayer(), 3, 3)
	if _, bad := res.Exceptions[newCell]; bad {
		t.Fatal("cell without a previous window must not be exceptional")
	}
}

func TestDeltaCubingValidation(t *testing.T) {
	s := testSchema(t, 2, 2, 2)
	cur := deltaInputs([][]int32{{0, 0}}, []float64{1}, 10, 19)
	if _, err := DeltaCubing(s, nil, nil, exception.Delta{}); err == nil {
		t.Fatal("expected empty current window error")
	}
	gap := deltaInputs([][]int32{{0, 0}}, []float64{1}, 0, 8) // ends at 8, cur starts at 10
	if _, err := DeltaCubing(s, cur, gap, exception.Delta{}); err == nil {
		t.Fatal("expected adjacency error")
	}
	badPrev := []Input{{Members: []int32{0}, Measure: regression.ISB{Tb: 0, Te: 9}}}
	if _, err := DeltaCubing(s, cur, badPrev, exception.Delta{}); err == nil {
		t.Fatal("expected previous-window validation error")
	}
}

// The delta cube's per-cell regressions must equal the plain cubes of each
// window.
func TestDeltaCubingConsistentWithMOCubing(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	prevInputs := randomInputs(s, 150, 1, 31)
	curInputs := randomInputs(s, 150, 1, 32)
	// Shift current window to be adjacent after prev ([0,9] → [10,19]).
	for i := range curInputs {
		curInputs[i].Measure.Tb += 10
		curInputs[i].Measure.Te += 10
	}
	res, err := DeltaCubing(s, curInputs, prevInputs, exception.Delta{MinSlopeChange: 1})
	if err != nil {
		t.Fatal(err)
	}
	moCur, err := MOCubing(s, curInputs, exception.Global(0))
	if err != nil {
		t.Fatal(err)
	}
	moPrev, err := MOCubing(s, prevInputs, exception.Global(0))
	if err != nil {
		t.Fatal(err)
	}
	for key, dc := range res.Exceptions {
		curWant, ok := moCur.Exception(key) // threshold 0: every cell retained
		if !ok {
			t.Fatalf("cell %v missing from current cube", key)
		}
		if !almostEq(dc.Cur.Slope, curWant.Slope, 1e-9) {
			t.Fatalf("cur slope mismatch at %v", key)
		}
		if dc.HavePrev {
			prevWant, ok := moPrev.Exception(key)
			if !ok {
				t.Fatalf("cell %v missing from previous cube", key)
			}
			if !almostEq(dc.Prev.Slope, prevWant.Slope, 1e-9) {
				t.Fatalf("prev slope mismatch at %v", key)
			}
			if dc.SlopeChange() < 1 {
				t.Fatal("retained cell below change threshold")
			}
		}
	}
}
