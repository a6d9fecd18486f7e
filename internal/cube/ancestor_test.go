package cube

import (
	"fmt"
	"math/rand"
	"testing"
)

// ancestorAgrees checks the index against the interface-walking Ancestor
// for every (from, to) level pair of dimension d, over at most sample
// members per from-level (all of them when the level is small).
func ancestorAgrees(t *testing.T, ix *AncestorIndex, d int, h Hierarchy, sample int, rng *rand.Rand) {
	t.Helper()
	for from := 1; from <= h.Levels(); from++ {
		card := h.Cardinality(from)
		for to := 0; to <= from; to++ {
			if card <= sample {
				for m := 0; m < card; m++ {
					want := Ancestor(h, from, to, int32(m))
					if got := ix.Ancestor(d, from, to, int32(m)); got != want {
						t.Fatalf("dim %d: Ancestor(from=%d,to=%d,m=%d) = %d, want %d", d, from, to, m, got, want)
					}
				}
				continue
			}
			for i := 0; i < sample; i++ {
				m := int32(rng.Intn(card))
				want := Ancestor(h, from, to, m)
				if got := ix.Ancestor(d, from, to, m); got != want {
					t.Fatalf("dim %d: Ancestor(from=%d,to=%d,m=%d) = %d, want %d", d, from, to, m, got, want)
				}
			}
		}
	}
}

// randomNamedHierarchy builds a valid NamedHierarchy with random shape:
// random per-level cardinalities and random (not fanout-regular) parents.
func randomNamedHierarchy(t *testing.T, rng *rand.Rand, levels int) *NamedHierarchy {
	t.Helper()
	h := NewNamedHierarchy("R")
	card := 1 + rng.Intn(4)
	names := make([]string, card)
	for i := range names {
		names[i] = fmt.Sprintf("L1.%d", i)
	}
	if err := h.AddLevel(names, nil); err != nil {
		t.Fatal(err)
	}
	for l := 2; l <= levels; l++ {
		next := card + rng.Intn(3*card+1)
		names = make([]string, next)
		parents := make([]int32, next)
		for i := range names {
			names[i] = fmt.Sprintf("L%d.%d", l, i)
			parents[i] = int32(rng.Intn(card))
		}
		if err := h.AddLevel(names, parents); err != nil {
			t.Fatal(err)
		}
		card = next
	}
	return h
}

// TestAncestorIndexAgreesFanout: the divisor fast path must agree with the
// interface walk for every (dim, from, to, member) of fuzz-generated fanout
// hierarchies, including deep ones where fanout^k saturates.
func TestAncestorIndexAgreesFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		fanout := 1 + rng.Intn(6)
		levels := 1 + rng.Intn(5)
		h, err := NewFanoutHierarchy("F", fanout, levels)
		if err != nil {
			t.Fatal(err)
		}
		m := levels
		o := rng.Intn(m + 1)
		s, err := NewSchema(Dimension{Name: "F", Hierarchy: h, MLevel: m, OLevel: o})
		if err != nil {
			t.Fatal(err)
		}
		ix := NewAncestorIndex(s)
		ancestorAgrees(t, ix, 0, h, 200, rng)
	}
	// Deep tree: 10^7 members at the m-level, saturating power table sizes.
	h, err := NewFanoutHierarchy("deep", 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(Dimension{Name: "deep", Hierarchy: h, MLevel: 7, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ancestorAgrees(t, NewAncestorIndex(s), 0, h, 100, rng)
}

// TestAncestorIndexAgreesNamed: the dense-table path must agree with the
// interface walk on irregular explicitly-enumerated hierarchies.
func TestAncestorIndexAgreesNamed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		levels := 1 + rng.Intn(5)
		h := randomNamedHierarchy(t, rng, levels)
		s, err := NewSchema(Dimension{Name: "R", Hierarchy: h, MLevel: levels, OLevel: rng.Intn(levels + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ix := NewAncestorIndex(s)
		ancestorAgrees(t, ix, 0, h, 500, rng)
	}
}

// wideHierarchy is a non-fanout hierarchy whose top level exceeds the dense
// table cap, forcing the Parent-walk fallback.
type wideHierarchy struct{ top int }

func (w *wideHierarchy) Levels() int { return 2 }
func (w *wideHierarchy) Cardinality(level int) int {
	switch level {
	case 2:
		return w.top
	case 1:
		return 7
	default:
		return 1
	}
}
func (w *wideHierarchy) Parent(level int, member int32) int32 {
	if level <= 1 {
		return 0
	}
	return member % 7
}
func (w *wideHierarchy) MemberName(level int, member int32) string {
	return fmt.Sprintf("w.%d.%d", level, member)
}

// TestAncestorIndexFallback: cardinalities past the table cap resolve by
// walking Parent and still agree with Ancestor.
func TestAncestorIndexFallback(t *testing.T) {
	h := &wideHierarchy{top: maxDenseTableMembers + 1}
	s, err := NewSchema(Dimension{Name: "W", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewAncestorIndex(s)
	if ix.dims[0].tables != nil || ix.dims[0].fanout != 0 {
		t.Fatal("oversized non-fanout hierarchy must use the fallback strategy")
	}
	ancestorAgrees(t, ix, 0, h, 300, rand.New(rand.NewSource(47)))
}

// TestAncestorIndexRollUpMatchesRollUpKey: RollUp must produce exactly
// RollUpKey's cell for random multi-dimensional keys and cuboid pairs.
func TestAncestorIndexRollUpMatchesRollUpKey(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]Dimension, nd)
		for d := range dims {
			levels := 1 + rng.Intn(4)
			var h Hierarchy
			if rng.Intn(2) == 0 {
				fh, err := NewFanoutHierarchy(fmt.Sprintf("F%d", d), 1+rng.Intn(5), levels)
				if err != nil {
					t.Fatal(err)
				}
				h = fh
			} else {
				h = randomNamedHierarchy(t, rng, levels)
			}
			dims[d] = Dimension{Name: fmt.Sprintf("D%d", d), Hierarchy: h, MLevel: levels, OLevel: rng.Intn(levels + 1)}
		}
		s, err := NewSchema(dims...)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewAncestorIndex(s)
		mLayer := s.MLayer()
		for k := 0; k < 50; k++ {
			// Random m-layer cell, random coarser target cuboid.
			key := CellKey{Cuboid: mLayer}
			levels := make([]int, nd)
			for d := range dims {
				key.Members[d] = int32(rng.Intn(dims[d].Hierarchy.Cardinality(dims[d].MLevel)))
				levels[d] = rng.Intn(dims[d].MLevel + 1)
			}
			to := MustCuboid(levels...)
			want, err := RollUpKey(s, key, to)
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.RollUp(key, to); got != want {
				t.Fatalf("RollUp(%v, %v) = %v, want %v", key, to, got, want)
			}
		}

		// The bulk form: one target cuboid, keys of random cuboids (two in
		// a row per cuboid, so both the plan lookup and its memo run). A key
		// whose cuboid does not dominate the target has no ancestor there.
		olevels := make([]int, nd)
		for d := range dims {
			olevels[d] = rng.Intn(dims[d].MLevel + 1)
		}
		to := MustCuboid(olevels...)
		up := ix.RollUpTo(to)
		for k := 0; k < 100; k++ {
			levels := make([]int, nd)
			for d := range dims {
				levels[d] = rng.Intn(dims[d].MLevel + 1)
			}
			for rep := 0; rep < 2; rep++ {
				key := CellKey{Cuboid: MustCuboid(levels...)}
				for d := range dims {
					key.Members[d] = int32(rng.Intn(dims[d].Hierarchy.Cardinality(levels[d])))
				}
				want, err := RollUpKey(s, key, to)
				got, ok := up.Key(key)
				if ok != (err == nil) || got != want {
					t.Fatalf("RollUpTo(%v).Key(%v) = %v, %v; RollUpKey = %v, %v", to, key, got, ok, want, err)
				}
			}
		}
	}
}

// TestResolverModes: the compiled per-dimension Resolver agrees with
// Ancestor in each of its modes — ALL, identity, fanout divide, dense
// table, and the Parent walk of an oversized hierarchy.
func TestResolverModes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	fh, err := NewFanoutHierarchy("F", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Hierarchy{fh, randomNamedHierarchy(t, rng, 4), &wideHierarchy{top: maxDenseTableMembers + 1}} {
		s, err := NewSchema(Dimension{Name: "D", Hierarchy: h, MLevel: h.Levels()})
		if err != nil {
			t.Fatal(err)
		}
		ix := NewAncestorIndex(s)
		for from := 0; from <= h.Levels(); from++ {
			for to := 0; to <= from; to++ {
				r := ix.Resolver(0, from, to)
				for i := 0; i < 50; i++ {
					m := int32(rng.Intn(h.Cardinality(from)))
					if got, want := r.Resolve(m), Ancestor(h, from, to, m); got != want {
						t.Fatalf("%T: Resolver(%d→%d).Resolve(%d) = %d, want %d", h, from, to, m, got, want)
					}
				}
			}
		}
	}
}
