package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// walkHierarchy is a two-level non-fanout hierarchy too wide for the
// ancestor index's dense tables (past 1<<22 members), so its roll-ups take
// the Parent-walk resolver mode.
type walkHierarchy struct{}

func (walkHierarchy) Levels() int { return 2 }
func (walkHierarchy) Cardinality(level int) int {
	return [...]int{1, 5, 1<<22 + 1}[max(level, 0)]
}
func (walkHierarchy) Parent(level int, member int32) int32 {
	if level <= 1 {
		return 0
	}
	return member % 5
}
func (walkHierarchy) MemberName(level int, member int32) string {
	return fmt.Sprintf("w.%d.%d", level, member)
}

// randomNamed builds an irregular explicitly enumerated hierarchy (the
// table resolver mode).
func randomNamed(t *testing.T, rng *rand.Rand, levels int) *cube.NamedHierarchy {
	t.Helper()
	h := cube.NewNamedHierarchy("N")
	card := 0
	for l := 1; l <= levels; l++ {
		next := card + 1 + rng.Intn(2*card+3)
		names := make([]string, next)
		var parents []int32
		if l > 1 {
			parents = make([]int32, next)
		}
		for i := range names {
			names[i] = fmt.Sprintf("L%d.%d", l, i)
			if l > 1 {
				parents[i] = int32(rng.Intn(card))
			}
		}
		if err := h.AddLevel(names, parents); err != nil {
			t.Fatal(err)
		}
		card = next
	}
	return h
}

// randomRetained builds a random schema mixing all three resolver modes
// (fanout divide, NamedHierarchy table, Parent walk) — the o-layer at the
// apex, at the m-layer, or anywhere between, by trial — and a Result whose
// retained cells are spread over every cuboid of its lattice, few distinct
// members per dimension so o-cells collect several supporters each.
func randomRetained(t *testing.T, rng *rand.Rand, trial int) *Result {
	t.Helper()
	nd := 1 + rng.Intn(3)
	dims := make([]cube.Dimension, nd)
	for d := range dims {
		var h cube.Hierarchy
		switch rng.Intn(3) {
		case 0:
			fh, err := cube.NewFanoutHierarchy(fmt.Sprintf("F%d", d), 1+rng.Intn(4), 1+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			h = fh
		case 1:
			h = randomNamed(t, rng, 1+rng.Intn(3))
		default:
			h = walkHierarchy{}
		}
		dims[d] = cube.Dimension{Name: fmt.Sprintf("D%d", d), Hierarchy: h, MLevel: h.Levels()}
		switch trial % 3 {
		case 0: // apex o-layer: OLevel stays 0
		case 1: // o-layer == m-layer
			dims[d].OLevel = dims[d].MLevel
		default:
			dims[d].OLevel = rng.Intn(dims[d].MLevel + 1)
		}
	}
	s, err := cube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	oCells := make(map[cube.CellKey]regression.ISB)
	excs := make(map[cube.CellKey]regression.ISB)
	cuboids := cube.NewLattice(s).Cuboids()
	for i := 0; i < 200; i++ {
		key := cube.CellKey{Cuboid: cuboids[rng.Intn(len(cuboids))]}
		for d := range dims {
			card := dims[d].Hierarchy.Cardinality(key.Cuboid.Level(d))
			key.Members[d] = int32(rng.Intn(min(card, 6)) * (card / min(card, 6)))
		}
		isb := regression.ISB{Te: 9, Base: rng.NormFloat64(), Slope: rng.NormFloat64()}
		excs[key] = isb
		o, err := cube.RollUpKey(s, key, s.OLayer())
		if err != nil {
			t.Fatal(err)
		}
		oCells[o] = isb
	}
	res, err := NewResult(s, cellList(oCells), cellList(excs), Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSupportersMatchBruteForce: Result.Supporters must yield — per
// o-cell, in CompareKeys order — exactly the retained exceptions a
// cube.IsDescendantCell scan finds below that o-cell, NumSupporters count
// them, and both give nothing for a cell that is not an o-cell; the same
// holds of a result merged from disjoint parts.
func TestSupportersMatchBruteForce(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		s := res.Schema
		for _, o := range res.OCells() {
			var want []Cell
			for _, c := range res.ExceptionCells() {
				if c.Key != o.Key && cube.IsDescendantCell(s, c.Key, o.Key) {
					want = append(want, c)
				}
			}
			if got := slices.Collect(res.Supporters(o.Key)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%s): supporters of %s differ from the brute-force scan:\n got %v\nwant %v",
					label, s.Describe(), o.Key.Describe(s), got, want)
			}
			if n := res.NumSupporters(o.Key); n != len(want) {
				t.Fatalf("%s: NumSupporters(%s) = %d, want %d", label, o.Key.Describe(s), n, len(want))
			}
		}
		for _, c := range res.ExceptionCells() {
			if c.Key.Cuboid != s.OLayer() {
				if n := len(slices.Collect(res.Supporters(c.Key))) + res.NumSupporters(c.Key); n != 0 {
					t.Fatalf("%s: %d supporters of %s, which is not an o-cell", label, n, c.Key.Describe(s))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		res := randomRetained(t, rng, trial)
		check(fmt.Sprintf("trial %d", trial), res)
		// Split the o-cells in two, each exception going with its o-cell.
		s := res.Schema
		var parts [2][2][]Cell
		side := make(map[cube.CellKey]int)
		for _, o := range res.OCells() {
			side[o.Key] = rng.Intn(2)
			parts[side[o.Key]][0] = append(parts[side[o.Key]][0], o)
		}
		for _, c := range res.ExceptionCells() {
			o, err := cube.RollUpKey(s, c.Key, s.OLayer())
			if err != nil {
				t.Fatal(err)
			}
			parts[side[o]][1] = append(parts[side[o]][1], c)
		}
		var results []*Result
		for _, p := range parts {
			r, err := NewResult(s, p[0], p[1], Stats{})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		merged, err := Merge(s, results)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d merged", trial), merged)
	}
}

// TestExceptionCellsCanonicalOrder: MOCubing, fresh or in a reused Workspace,
// lists its o-layer and exception cells in CompareCells order with no
// repeats — the invariants NewResult holds a decoded document to, so it
// must accept both lists as they stand. Random schemas with duplicate
// tuples, a lattice with a 2^63·2-cell cuboid (the aggregator's key sort) and an apex
// o-layer cover every way a pass's run is made.
func TestExceptionCellsCanonicalOrder(t *testing.T) {
	spread := 0 // runs whose exceptions span three or more cuboids
	check := func(label string, res *Result) {
		t.Helper()
		for kind, cells := range map[string][]Cell{"o-layer": res.OCells(), "exception": res.ExceptionCells()} {
			for i := 1; i < len(cells); i++ {
				if CompareCells(cells[i-1], cells[i]) >= 0 {
					t.Fatalf("%s: %s cells %d and %d out of canonical order: %s, %s", label, kind, i-1, i,
						cells[i-1].Key.Describe(res.Schema), cells[i].Key.Describe(res.Schema))
				}
			}
		}
		decoded, err := NewResult(res.Schema, res.OCells(), res.ExceptionCells(), res.Stats)
		if err != nil {
			t.Fatalf("%s: NewResult refuses the kernel's lists: %v", label, err)
		}
		// The kernel indexes its supporters as NewResult does.
		for _, o := range res.OCells() {
			if got, want := slices.Collect(res.Supporters(o.Key)), slices.Collect(decoded.Supporters(o.Key)); !slices.Equal(got, want) {
				t.Fatalf("%s: supporters of %s: kernel %v, NewResult %v", label, o.Key.Describe(res.Schema), got, want)
			}
		}
		// The exceptions partition over the lattice's cuboids.
		cuboids := map[cube.Cuboid]bool{}
		for _, c := range res.ExceptionCells() {
			cuboids[c.Key.Cuboid] = true
		}
		lattice := cube.NewLattice(res.Schema).Cuboids()
		for c := range cuboids {
			if !slices.Contains(lattice, c) {
				t.Fatalf("%s: exception cell in cuboid %s, outside the lattice", label, c.Describe(res.Schema))
			}
		}
		if len(cuboids) >= 3 {
			spread++
		}
	}
	run := func(label string, s *cube.Schema, thr exception.Thresholder, batches ...[]Input) {
		t.Helper()
		ws := NewWorkspace(s)
		for i, inputs := range batches {
			fresh, err := MOCubing(s, inputs, thr)
			if err != nil {
				t.Fatalf("%s batch %d: %v", label, i, err)
			}
			check(fmt.Sprintf("%s batch %d", label, i), fresh)
			reused, err := ws.MOCubing(inputs, thr)
			if err != nil {
				t.Fatalf("%s batch %d in a workspace: %v", label, i, err)
			}
			check(fmt.Sprintf("%s batch %d in a workspace", label, i), reused)
		}
	}

	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		s, err := randomAgreementSchema(rng)
		if err != nil {
			t.Fatal(err)
		}
		run(s.Describe(), s, exception.Global(rng.Float64()),
			randomAgreementInputs(rng, s, 100+rng.Intn(200)), randomAgreementInputs(rng, s, 3),
			randomAgreementInputs(rng, s, 150))
	}
	if spread < 15 {
		t.Fatalf("only %d random runs retained exceptions in three or more cuboids; the test no longer covers run placement", spread)
	}

	// Three 2^21-member flat dimensions and a 2-level fanout one: cuboid
	// (1,1,1,1) has 2^64 cells and takes the aggregator's key sort, and the m-layer
	// overflows the code too.
	fh, err := cube.NewFanoutHierarchy("D", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{{Name: "D", Hierarchy: fh, MLevel: 2, OLevel: 1}}
	for _, name := range []string{"A", "B", "C"} {
		dims = append(dims, cube.Dimension{Name: name, Hierarchy: &flatHierarchy{name: name, card: 1 << 21}, MLevel: 1})
	}
	s, err := cube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cuboidCoder(s, cube.MustCuboid(1, 1, 1, 1)); ok {
		t.Fatal("expected the 2^64-cell cuboid to overflow the coder")
	}
	inputs := make([]Input, 300)
	for i := range inputs {
		pick := func() int32 { return int32(rng.Intn(8)) * (1 << 18) }
		inputs[i] = Input{
			Members: []int32{int32(rng.Intn(4)), pick(), pick(), pick()},
			Measure: regression.ISB{Te: 9, Base: rng.NormFloat64(), Slope: rng.NormFloat64() * 2},
		}
	}
	run("overflow", s, exception.Global(0.5), inputs, inputs[:40])

	// Apex o-layer: one o-cell, every cuboid of the lattice below it.
	var apexDims []cube.Dimension
	for _, name := range []string{"A", "B", "C"} {
		h, err := cube.NewFanoutHierarchy(name, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		apexDims = append(apexDims, cube.Dimension{Name: name, Hierarchy: h, MLevel: 2})
	}
	apex, err := cube.NewSchema(apexDims...)
	if err != nil {
		t.Fatal(err)
	}
	run("apex", apex, exception.Global(0.5), randomInputs(apex, 400, 2, 5), randomInputs(apex, 30, 2, 6))
}
