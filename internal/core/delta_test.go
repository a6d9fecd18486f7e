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

// The delta cube's per-cell regressions are the plain cubes of each
// window bit for bit: each window runs m/o-cubing's pass. Legs: adjacent
// windows, an empty previous window, and an o-region only the previous
// window holds — its cells are in neither map.
func TestDeltaCubingConsistentWithMOCubing(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	prevInputs := randomInputs(s, 150, 1, 31)
	curInputs := randomInputs(s, 150, 1, 32)
	// Shift current window to be adjacent after prev ([0,9] → [10,19]).
	for i := range curInputs {
		curInputs[i].Measure.Tb += 10
		curInputs[i].Measure.Te += 10
	}
	// The current window without o-cell (0, 0)'s tuples.
	var withoutOCell []Input
	for _, in := range curInputs {
		if in.Members[0]/3 != 0 || in.Members[1]/3 != 0 {
			withoutOCell = append(withoutOCell, in)
		}
	}
	for _, leg := range []struct {
		name      string
		cur, prev []Input
	}{
		{"adjacent", curInputs, prevInputs},
		{"empty previous", curInputs, nil},
		{"previous only", withoutOCell, prevInputs},
	} {
		t.Run(leg.name, func(t *testing.T) {
			checkDeltaCubing(t, s, leg.cur, leg.prev, exception.Delta{MinSlopeChange: 0.5}, func(in []Input) (*Result, error) {
				return MOCubing(s, in, exception.Global(0)) // threshold 0: every cell retained
			})
		})
	}
}

// checkDeltaCubing holds every cell of DeltaCubing(cur, prev) to each
// window's cube, bit for bit: cubeOf retains a window's every cell as an
// exception. A cell of the current window is in OLayer when at the o-layer
// and in Exceptions exactly when det flags it; a cell only the previous
// window holds is in neither.
func checkDeltaCubing(t *testing.T, s *cube.Schema, cur, prev []Input, det exception.Delta, cubeOf func([]Input) (*Result, error)) {
	t.Helper()
	res, err := DeltaCubing(s, cur, prev, det)
	if err != nil {
		t.Fatal(err)
	}
	moCur, err := cubeOf(cur)
	if err != nil {
		t.Fatal(err)
	}
	moPrev := &Result{Schema: s}
	if len(prev) > 0 {
		if moPrev, err = cubeOf(prev); err != nil {
			t.Fatal(err)
		}
	}
	exceptions := 0
	for _, cell := range moCur.ExceptionCells() {
		want := DeltaCell{Key: cell.Key, Cur: cell.ISB}
		want.Prev, want.HavePrev = moPrev.Exception(cell.Key)
		if got, ok := res.OLayer[cell.Key]; cell.Key.Cuboid == s.OLayer() && (!ok || got != want) {
			t.Fatalf("o-cell %v: %+v, want %+v", cell.Key, got, want)
		}
		got, ok := res.Exceptions[cell.Key]
		if det.Exceptional(want.Cur, want.Prev, want.HavePrev) {
			exceptions++
			if !ok || got != want {
				t.Fatalf("exception %v: %+v, want %+v", cell.Key, got, want)
			}
		} else if ok {
			t.Fatalf("cell %v retained below the change threshold", cell.Key)
		}
	}
	if len(res.OLayer) != moCur.NumOCells() || len(res.Exceptions) != exceptions {
		t.Fatalf("%d o-cells, %d exceptions; want %d, %d", len(res.OLayer), len(res.Exceptions), moCur.NumOCells(), exceptions)
	}
	onlyPrev := 0
	for _, cell := range moPrev.ExceptionCells() {
		if _, ok := moCur.Exception(cell.Key); ok {
			continue
		}
		onlyPrev++
		_, inO := res.OLayer[cell.Key]
		if _, inExc := res.Exceptions[cell.Key]; inO || inExc {
			t.Fatalf("cell %v of the previous window only is retained", cell.Key)
		}
	}
	t.Logf("%d exceptions, %d cells of the previous window only", exceptions, onlyPrev)
}
