package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cube"
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
	res := &Result{
		Schema:     s,
		oLayer:     cellSet{m: make(map[cube.CellKey]regression.ISB)},
		exceptions: cellSet{m: make(map[cube.CellKey]regression.ISB)},
	}
	cuboids := cube.NewLattice(s).Cuboids()
	for i := 0; i < 200; i++ {
		key := cube.CellKey{Cuboid: cuboids[rng.Intn(len(cuboids))]}
		for d := range dims {
			card := dims[d].Hierarchy.Cardinality(key.Cuboid.Level(d))
			key.Members[d] = int32(rng.Intn(min(card, 6)) * (card / min(card, 6)))
		}
		isb := regression.ISB{Te: 9, Base: rng.NormFloat64(), Slope: rng.NormFloat64()}
		res.exceptions.m[key] = isb
		o, err := cube.RollUpKey(s, key, s.OLayer())
		if err != nil {
			t.Fatal(err)
		}
		res.oLayer.m[o] = isb
	}
	return res
}

// TestSupportersByOCellMatchesBruteForce: the index must hold — per
// o-cell, in CompareKeys order — exactly the retained exceptions a
// cube.IsDescendantCell scan finds below that o-cell.
func TestSupportersByOCellMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		res := randomRetained(t, rng, trial)
		s := res.Schema
		want := make(map[cube.CellKey][]Cell)
		for o := range res.oLayer.m {
			for k, isb := range res.exceptions.m {
				if k != o && cube.IsDescendantCell(s, k, o) {
					want[o] = append(want[o], Cell{Key: k, ISB: isb})
				}
			}
			slices.SortFunc(want[o], CompareCells)
		}
		got := SupportersByOCell(cube.NewAncestorIndex(s), res)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s): index differs from the brute-force scan:\n got %v\nwant %v",
				trial, s.Describe(), got, want)
		}
	}
}

// TestExceptionCellsCanonicalOrder: the coded radix sort and the
// comparison fallback (a lattice whose cell space overflows the code) both
// return exactly the comparison-sorted cells.
func TestExceptionCellsCanonicalOrder(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		want := make([]Cell, 0, len(res.exceptions.m))
		for k, isb := range res.exceptions.m {
			want = append(want, Cell{Key: k, ISB: isb})
		}
		slices.SortFunc(want, CompareCells)
		if got := res.ExceptionCells(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExceptionCells not in CompareKeys order:\n got %v\nwant %v", label, got, want)
		}
	}
	rng := rand.New(rand.NewSource(101))
	coded := 0
	for trial := 0; trial < 30; trial++ {
		res := randomRetained(t, rng, trial)
		if _, ok := radixSortCells(res.Schema, nil); ok {
			coded++
		}
		check(res.Schema.Describe(), res)
	}
	if coded < 15 {
		t.Fatalf("the coded sort applied to %d of 30 random schemas; the test no longer covers it", coded)
	}

	// Three 2^21-member flat dimensions: cuboid (1,1,1) alone has 2^63 cells.
	dims := make([]cube.Dimension, 3)
	for d := range dims {
		name := string(rune('A' + d))
		dims[d] = cube.Dimension{Name: name, Hierarchy: &flatHierarchy{name: name, card: 1 << 21}, MLevel: 1}
	}
	s, err := cube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	if _, coded := radixSortCells(s, nil); coded {
		t.Fatal("expected the 2^63-cell lattice to overflow the code")
	}
	res := &Result{Schema: s, exceptions: cellSet{m: make(map[cube.CellKey]regression.ISB)}}
	for i := 0; i < 200; i++ {
		levels := []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)}
		key := cube.CellKey{Cuboid: cube.MustCuboid(levels...)}
		for d, l := range levels {
			key.Members[d] = int32(l * rng.Intn(1<<21))
		}
		res.exceptions.m[key] = regression.ISB{Te: 9, Slope: rng.NormFloat64()}
	}
	check("overflow", res)
}
