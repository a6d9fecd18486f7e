package query

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/regression"
)

func view(t *testing.T) (*View, *cube.Schema) {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Spec: gen.Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 300}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MOCubing(ds.Schema, ds.Inputs, exception.Global(ds.CalibrateThreshold(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	return NewView(res), ds.Schema
}

func TestTopExceptionsOrderedAndBounded(t *testing.T) {
	v, _ := view(t)
	all := v.TopExceptions(-1)
	if len(all) != v.Result().NumExceptions() {
		t.Fatalf("all = %d, want %d", len(all), v.Result().NumExceptions())
	}
	for i := 1; i < len(all); i++ {
		if math.Abs(all[i].ISB.Slope) > math.Abs(all[i-1].ISB.Slope) {
			t.Fatal("not sorted by |slope| descending")
		}
	}
	top3 := v.TopExceptions(3)
	if len(top3) != 3 {
		t.Fatalf("top3 = %d", len(top3))
	}
	for i := range top3 {
		if top3[i].Key != all[i].Key {
			t.Fatal("top-k must be a prefix of the full ranking")
		}
	}
	if got := v.TopExceptions(0); len(got) != 0 {
		t.Fatal("k=0 must be empty")
	}
}

func TestTopObservations(t *testing.T) {
	v, s := view(t)
	obs := v.TopObservations(-1)
	if len(obs) != v.Result().NumOCells() {
		t.Fatal("observation count")
	}
	for _, c := range obs {
		if !c.Key.Cuboid.Equal(s.OLayer()) {
			t.Fatal("observations must be o-layer cells")
		}
	}
}

func TestSupportersRollUpToCell(t *testing.T) {
	v, s := view(t)
	// Pick the steepest o-layer cell and drill.
	obs := v.TopObservations(1)
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	target := obs[0].Key
	sup := v.Supporters(target)
	for _, c := range sup {
		up, err := cube.RollUpKey(s, c.Key, target.Cuboid)
		if err != nil || up != target {
			t.Fatalf("supporter %v does not roll up to %v", c.Key, target)
		}
		if c.Key == target {
			t.Fatal("cell must not support itself")
		}
	}
	// Coarsest-first ordering.
	for i := 1; i < len(sup); i++ {
		if depth(sup[i].Key.Cuboid) < depth(sup[i-1].Key.Cuboid) {
			t.Fatal("supporters must be coarsest-first")
		}
	}
	// Count matches a direct scan.
	direct := 0
	for _, c := range v.Result().ExceptionCells() {
		key := c.Key
		if key == target {
			continue
		}
		if up, err := cube.RollUpKey(s, key, target.Cuboid); err == nil && up == target {
			direct++
		}
	}
	if len(sup) != direct {
		t.Fatalf("supporters = %d, want %d", len(sup), direct)
	}
}

func TestExceptionChildrenAreOneStep(t *testing.T) {
	v, s := view(t)
	lattice := cube.NewLattice(s)
	obs := v.TopObservations(1)
	kids := v.ExceptionChildren(obs[0].Key)
	childCuboids := lattice.Children(obs[0].Key.Cuboid)
	for _, c := range kids {
		found := false
		for _, cc := range childCuboids {
			if c.Key.Cuboid.Equal(cc) {
				found = true
			}
		}
		if !found {
			t.Fatalf("child %v not in an immediate child cuboid", c.Key)
		}
		up, err := cube.RollUpKey(s, c.Key, obs[0].Key.Cuboid)
		if err != nil || up != obs[0].Key {
			t.Fatal("child does not descend from the cell")
		}
	}
}

func TestSliceFiltersByAncestor(t *testing.T) {
	v, s := view(t)
	h := s.Dims[0].Hierarchy
	member := int32(1)
	cells := v.Slice(0, 1, member)
	for _, c := range cells {
		lvl := c.Key.Cuboid.Level(0)
		if lvl < 1 {
			t.Fatal("cells coarser than the slice level must be excluded")
		}
		if cube.Ancestor(h, lvl, 1, c.Key.Members[0]) != member {
			t.Fatalf("cell %v outside the slice", c.Key)
		}
	}
	// Direct count.
	direct := 0
	for _, c := range v.Result().ExceptionCells() {
		key := c.Key
		lvl := key.Cuboid.Level(0)
		if lvl >= 1 && cube.Ancestor(h, lvl, 1, key.Members[0]) == member {
			direct++
		}
	}
	if len(cells) != direct {
		t.Fatalf("slice = %d, want %d", len(cells), direct)
	}
}

func TestSummaryCoversLattice(t *testing.T) {
	v, s := view(t)
	sum := v.Summary()
	lattice := cube.NewLattice(s)
	if len(sum) != lattice.Size() {
		t.Fatalf("summary rows = %d, want %d", len(sum), lattice.Size())
	}
	total := 0
	for _, row := range sum {
		total += row.Exceptions
		if row.Exceptions > 0 && row.MaxAbsSlope <= 0 {
			t.Fatal("max slope missing")
		}
	}
	if total != v.Result().NumExceptions() {
		t.Fatalf("summary total = %d, want %d", total, v.Result().NumExceptions())
	}
	// Coarsest-first: depths non-decreasing.
	for i := 1; i < len(sum); i++ {
		if depth(sum[i].Cuboid) < depth(sum[i-1].Cuboid) {
			t.Fatal("summary must be coarsest-first")
		}
	}
}

func TestViewWorksForPopularPath(t *testing.T) {
	ds, err := gen.Generate(gen.Config{Spec: gen.Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 300}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	lattice := cube.NewLattice(ds.Schema)
	res, err := core.PopularPath(ds.Schema, ds.Inputs, exception.Global(ds.CalibrateThreshold(0.05)), lattice.DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(res)
	if len(v.TopExceptions(-1)) != res.NumExceptions() {
		t.Fatal("popular-path view exception count")
	}
	obs := v.TopObservations(1)
	if len(obs) == 1 {
		_ = v.Supporters(obs[0].Key) // must not panic on subset results
	}
}

func TestDeterministicTieBreaks(t *testing.T) {
	// Two cells with identical slopes must order deterministically.
	h, _ := cube.NewFanoutHierarchy("A", 2, 1)
	s, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 1, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []core.Input{
		{Members: []int32{0}, Measure: regression.ISB{Tb: 0, Te: 9, Slope: 2}},
		{Members: []int32{1}, Measure: regression.ISB{Tb: 0, Te: 9, Slope: 2}},
	}
	res, err := core.MOCubing(s, inputs, exception.Global(1))
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(res)
	for i := 0; i < 5; i++ {
		top := v.TopExceptions(-1)
		if len(top) != 2 || top[0].Key.Members[0] != 0 || top[1].Key.Members[0] != 1 {
			t.Fatalf("unstable ordering: %v", top)
		}
	}
}
