package core

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// Full materialization is the exact oracle m/o-cubing is checked against:
// every cell of every cuboid, no pruning, so a retained-exception set is a
// filter of it.

func TestFullCubingMatchesBruteForce(t *testing.T) {
	s := testSchema(t, 3, 2, 3)
	inputs := randomInputs(s, 250, 1, 21)
	truth := bruteForce(t, s, inputs)
	res, err := FullCubing(s, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellCount() != int64(len(truth)) {
		t.Fatalf("cells = %d, want %d", res.CellCount(), len(truth))
	}
	for _, cells := range res.Cuboids {
		for key, isb := range cells {
			want, ok := truth[key]
			if !ok {
				t.Fatalf("unexpected cell %v", key)
			}
			if !almostEq(isb.Base, want.Base, 1e-9) || !almostEq(isb.Slope, want.Slope, 1e-9) {
				t.Fatalf("cell %v = %v, want %v", key, isb, want)
			}
		}
	}
	if res.Stats.Algorithm != "full-cubing" {
		t.Fatal("stats algorithm name")
	}
	if res.Stats.CellsRetained != res.Stats.CellsComputed {
		t.Fatal("full cubing retains everything")
	}
}

func TestAlternativesValidateInput(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	if _, err := FullCubing(s, nil); err == nil {
		t.Fatal("FullCubing must validate")
	}
	if _, err := PopularPath(s, nil, exception.Global(1), cube.NewLattice(s).DefaultPath()); err == nil {
		t.Fatal("PopularPath must validate")
	}
}

func TestMOCubingMergesDuplicateTuples(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	isb := regression.ISB{Tb: 0, Te: 9, Base: 1, Slope: 1}
	inputs := []Input{
		{Members: []int32{0, 0}, Measure: isb},
		{Members: []int32{0, 0}, Measure: isb},
	}
	res, err := MOCubing(s, inputs, exception.Global(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TreeLeaves != 1 {
		t.Fatalf("merged leaves = %d, want 1", res.Stats.TreeLeaves)
	}
	mKey := cube.NewCellKey(s.MLayer(), 0, 0)
	got, ok := res.Exceptions[mKey]
	if !ok || !almostEq(got.Base, 2, 1e-12) || !almostEq(got.Slope, 2, 1e-12) {
		t.Fatalf("merged m-cell = %v", got)
	}
}

// Cross-check m/o-cubing, popular-path and the oracle on the degenerate
// o==m schema.
func TestAlternativesDegenerateSchema(t *testing.T) {
	h, _ := cube.NewFanoutHierarchy("A", 4, 1)
	s, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 1, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{
		{Members: []int32{0}, Measure: regression.ISB{Tb: 0, Te: 9, Slope: 2}},
		{Members: []int32{1}, Measure: regression.ISB{Tb: 0, Te: 9, Slope: 0.1}},
	}
	thr := exception.Global(1)
	mo, err := MOCubing(s, inputs, thr)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PopularPath(s, inputs, thr, cube.NewLattice(s).DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullCubing(s, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if full.CellCount() != 2 || len(mo.OLayer) != 2 || len(pp.OLayer) != 2 {
		t.Fatalf("cells: full %d, o-layer mo %d pp %d, want 2", full.CellCount(), len(mo.OLayer), len(pp.OLayer))
	}
	if len(mo.Exceptions) != 1 || len(pp.Exceptions) != 1 {
		t.Fatal("exception counts differ on degenerate schema")
	}
}
