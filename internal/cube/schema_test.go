package cube

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func exampleSchema(t *testing.T) *Schema {
	t.Helper()
	// Paper Example 5: dims A, B, C, each with 3 levels; m-layer
	// (A2,B2,C2), o-layer (A1,*,C1).
	ha, _ := NewFanoutHierarchy("A", 3, 3)
	hb, _ := NewFanoutHierarchy("B", 4, 3)
	hc, _ := NewFanoutHierarchy("C", 2, 3)
	s, err := NewSchema(
		Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 0},
		Dimension{Name: "C", Hierarchy: hc, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFanoutHierarchy(t *testing.T) {
	h, err := NewFanoutHierarchy("A", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 3 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.Cardinality(0) != 1 || h.Cardinality(1) != 10 || h.Cardinality(2) != 100 || h.Cardinality(3) != 1000 {
		t.Fatal("cardinalities wrong")
	}
	if h.Parent(3, 527) != 52 || h.Parent(2, 52) != 5 || h.Parent(1, 5) != 0 {
		t.Fatal("parent chain wrong")
	}
	if h.MemberName(0, 0) != "*" {
		t.Fatal("ALL member name")
	}
	if !strings.Contains(h.MemberName(2, 7), "A") {
		t.Fatal("member name should carry dimension name")
	}
}

func TestFanoutHierarchyValidation(t *testing.T) {
	if _, err := NewFanoutHierarchy("A", 0, 3); err == nil {
		t.Fatal("expected fanout error")
	}
	if _, err := NewFanoutHierarchy("A", 2, 0); err == nil {
		t.Fatal("expected levels error")
	}
}

func TestAncestor(t *testing.T) {
	h, _ := NewFanoutHierarchy("A", 10, 3)
	if got := Ancestor(h, 3, 1, 527); got != 5 {
		t.Fatalf("Ancestor = %d, want 5", got)
	}
	if got := Ancestor(h, 3, 0, 527); got != 0 {
		t.Fatalf("Ancestor to ALL = %d, want 0", got)
	}
	if got := Ancestor(h, 2, 2, 42); got != 42 {
		t.Fatalf("identity Ancestor = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic descending")
		}
	}()
	Ancestor(h, 1, 2, 0)
}

func TestNamedHierarchy(t *testing.T) {
	h := NewNamedHierarchy("loc")
	if err := h.AddLevel([]string{"east", "west"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLevel([]string{"nyc", "boston", "sf"}, []int32{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.Cardinality(1) != 2 || h.Cardinality(2) != 3 || h.Cardinality(0) != 1 {
		t.Fatal("cardinalities wrong")
	}
	if h.Parent(2, 2) != 1 || h.Parent(2, 0) != 0 || h.Parent(1, 1) != 0 {
		t.Fatal("parents wrong")
	}
	if h.MemberName(2, 1) != "boston" || h.MemberName(0, 0) != "*" {
		t.Fatal("names wrong")
	}
	m, err := h.Lookup(2, "sf")
	if err != nil || m != 2 {
		t.Fatalf("Lookup = %d, %v", m, err)
	}
	if _, err := h.Lookup(2, "denver"); err == nil {
		t.Fatal("expected lookup miss")
	}
	if _, err := h.Lookup(9, "x"); err == nil {
		t.Fatal("expected level error")
	}
}

func TestNamedHierarchyValidation(t *testing.T) {
	h := NewNamedHierarchy("x")
	if err := h.AddLevel(nil, nil); err == nil {
		t.Fatal("expected empty-level error")
	}
	if err := h.AddLevel([]string{"a"}, []int32{0}); err == nil {
		t.Fatal("first level must not declare parents")
	}
	_ = h.AddLevel([]string{"a", "b"}, nil)
	if err := h.AddLevel([]string{"c"}, []int32{5}); err == nil {
		t.Fatal("expected parent range error")
	}
	if err := h.AddLevel([]string{"c", "d"}, []int32{0}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := h.AddLevel([]string{"c", "c"}, []int32{0, 1}); err == nil {
		t.Fatal("expected duplicate member error")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	h, _ := NewFanoutHierarchy("A", 2, 3)
	if _, err := NewSchema(); err == nil {
		t.Fatal("expected no-dims error")
	}
	if _, err := NewSchema(Dimension{Name: "A", MLevel: 1}); err == nil {
		t.Fatal("expected nil-hierarchy error")
	}
	if _, err := NewSchema(Dimension{Name: "A", Hierarchy: h, MLevel: 4, OLevel: 1}); err == nil {
		t.Fatal("expected m-level range error")
	}
	if _, err := NewSchema(Dimension{Name: "A", Hierarchy: h, MLevel: 0, OLevel: 0}); err == nil {
		t.Fatal("expected m-level ≥ 1 error")
	}
	if _, err := NewSchema(Dimension{Name: "A", Hierarchy: h, MLevel: 1, OLevel: 2}); err == nil {
		t.Fatal("expected o-level ≤ m-level error")
	}
	dims := make([]Dimension, MaxDims+1)
	for i := range dims {
		dims[i] = Dimension{Name: "X", Hierarchy: h, MLevel: 1}
	}
	if _, err := NewSchema(dims...); err == nil {
		t.Fatal("expected too-many-dims error")
	}
}

func TestSchemaLayersAndCount(t *testing.T) {
	s := exampleSchema(t)
	m, o := s.MLayer(), s.OLayer()
	if m.Level(0) != 2 || m.Level(1) != 2 || m.Level(2) != 2 {
		t.Fatalf("m-layer = %v", m)
	}
	if o.Level(0) != 1 || o.Level(1) != 0 || o.Level(2) != 1 {
		t.Fatalf("o-layer = %v", o)
	}
	// Example 5: "there are in total 2·3·2 = 12 cuboids".
	if got := s.CuboidCount(); got != 12 {
		t.Fatalf("CuboidCount = %d, want 12", got)
	}
	if s.NumDims() != 3 {
		t.Fatalf("NumDims = %d", s.NumDims())
	}
	if !strings.Contains(s.Describe(), "B[o=L0,m=L2]") {
		t.Fatalf("Describe = %q", s.Describe())
	}
}

func TestCuboidBasics(t *testing.T) {
	c, err := NewCuboid(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDims() != 3 || c.Level(0) != 1 || c.Level(1) != 0 || c.Level(2) != 2 {
		t.Fatalf("cuboid = %v", c)
	}
	d := c.WithLevel(1, 2)
	if d.Level(1) != 2 || c.Level(1) != 0 {
		t.Fatal("WithLevel must not mutate receiver")
	}
	if !c.Equal(MustCuboid(1, 0, 2)) {
		t.Fatal("Equal")
	}
	if _, err := NewCuboid(); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := NewCuboid(-1); err == nil {
		t.Fatal("expected negative level error")
	}
}

func TestMustCuboidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCuboid()
}

func TestDominatedBy(t *testing.T) {
	coarse := MustCuboid(1, 0, 1)
	fine := MustCuboid(2, 2, 2)
	if !coarse.DominatedBy(fine) {
		t.Fatal("(1,0,1) should be dominated by (2,2,2)")
	}
	if fine.DominatedBy(coarse) {
		t.Fatal("(2,2,2) must not be dominated by (1,0,1)")
	}
	mixed := MustCuboid(2, 0, 1)
	other := MustCuboid(1, 2, 2)
	if mixed.DominatedBy(other) || other.DominatedBy(mixed) {
		t.Fatal("incomparable cuboids")
	}
	if coarse.DominatedBy(MustCuboid(2, 2)) {
		t.Fatal("different dimensionality never dominates")
	}
	if !coarse.DominatedBy(coarse) {
		t.Fatal("dominance is reflexive")
	}
}

func TestCuboidDescribe(t *testing.T) {
	s := exampleSchema(t)
	c := MustCuboid(1, 0, 2)
	if got := c.Describe(s); got != "(A1, *, C2)" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestCellKeyAndRollUp(t *testing.T) {
	s := exampleSchema(t)
	m := s.MLayer() // (A2,B2,C2); cardinalities 9, 16, 4
	k := NewCellKey(m, 7, 13, 3)
	if k.Member(0) != 7 || k.Member(1) != 13 || k.Member(2) != 3 {
		t.Fatal("members wrong")
	}
	o := s.OLayer() // (A1,*,C1)
	up, err := RollUpKey(s, k, o)
	if err != nil {
		t.Fatal(err)
	}
	// A: 7/3=2; B: ALL=0; C: 3/2=1.
	if up.Member(0) != 2 || up.Member(1) != 0 || up.Member(2) != 1 {
		t.Fatalf("rolled key = %v", up.Members)
	}
	if up.Cuboid != o {
		t.Fatal("rolled cuboid wrong")
	}
	// Identity roll-up.
	same, err := RollUpKey(s, k, m)
	if err != nil || same != k {
		t.Fatalf("identity roll-up = %v, %v", same, err)
	}
	// Cannot roll down.
	if _, err := RollUpKey(s, up, m); err == nil {
		t.Fatal("expected domination error")
	}
}

func TestIsDescendantCell(t *testing.T) {
	s := exampleSchema(t)
	m, o := s.MLayer(), s.OLayer()
	k := NewCellKey(m, 7, 13, 3)
	up, _ := RollUpKey(s, k, o)
	if !IsDescendantCell(s, k, up) {
		t.Fatal("k should descend from its own roll-up")
	}
	other := NewCellKey(o, 1, 0, 0)
	if IsDescendantCell(s, k, other) {
		t.Fatal("k should not descend from a different o-cell")
	}
	if IsDescendantCell(s, up, k) {
		t.Fatal("coarser cell cannot descend from finer")
	}
}

func TestCellKeyDescribe(t *testing.T) {
	s := exampleSchema(t)
	k := NewCellKey(s.OLayer(), 1, 0, 0)
	got := k.Describe(s)
	if !strings.Contains(got, "*") || !strings.Contains(got, "A.L1.1") {
		t.Fatalf("Describe = %q", got)
	}
}

// TestDescribeMatchesFmtRendering pins the append-style renderers to the
// bytes the fmt-based ones produced (streamd's report lines and every
// "name" field of the query API are made of them): "%s.L%d.%d" members,
// "%s%d" cuboid levels, "*" for ALL, ", " between dimensions.
func TestDescribeMatchesFmtRendering(t *testing.T) {
	s := exampleSchema(t)
	named := NewNamedHierarchy("region")
	if err := named.AddLevel([]string{"west", "east-2"}, nil); err != nil {
		t.Fatal(err)
	}
	mixed, err := NewSchema(
		Dimension{Name: "region", Hierarchy: named, MLevel: 1},
		Dimension{Name: "W", Hierarchy: &wideHierarchy{top: 1 << 30}, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for _, s := range []*Schema{s, mixed} {
		for _, c := range NewLattice(s).Cuboids() {
			var wantCuboid, wantCell []string
			key := CellKey{Cuboid: c}
			for d, dim := range s.Dims {
				l := c.Level(d)
				key.Members[d] = int32(rng.Intn(dim.Hierarchy.Cardinality(l)))
				switch h := dim.Hierarchy.(type) {
				case *FanoutHierarchy:
					wantCell = append(wantCell, fmt.Sprintf("%s.L%d.%d", h.Name, l, key.Members[d]))
				default:
					wantCell = append(wantCell, h.MemberName(l, key.Members[d]))
				}
				if l == 0 {
					wantCell[d] = "*"
					wantCuboid = append(wantCuboid, "*")
				} else {
					wantCuboid = append(wantCuboid, fmt.Sprintf("%s%d", dim.Name, l))
				}
			}
			if got, want := c.Describe(s), "("+strings.Join(wantCuboid, ", ")+")"; got != want {
				t.Fatalf("Cuboid.Describe = %q, want %q", got, want)
			}
			if got, want := key.Describe(s), "("+strings.Join(wantCell, ", ")+")"; got != want {
				t.Fatalf("CellKey.Describe = %q, want %q", got, want)
			}
			// Appending continues whatever the buffer already holds.
			buf := key.AppendDescribe(c.AppendDescribe([]byte("x "), s), s)
			if got, want := string(buf), "x "+c.Describe(s)+key.Describe(s); got != want {
				t.Fatalf("AppendDescribe = %q, want %q", got, want)
			}
		}
	}
}

func TestLatticeEnumeration(t *testing.T) {
	s := exampleSchema(t)
	l := NewLattice(s)
	if l.Size() != 12 {
		t.Fatalf("lattice size = %d, want 12 (Example 5)", l.Size())
	}
	// First cuboid must be the o-layer, last the m-layer.
	cs := l.Cuboids()
	if !cs[0].Equal(s.OLayer()) {
		t.Fatalf("first cuboid = %v", cs[0])
	}
	if !cs[len(cs)-1].Equal(s.MLayer()) {
		t.Fatalf("last cuboid = %v", cs[len(cs)-1])
	}
	// Every enumerated cuboid is within bounds and unique.
	seen := map[Cuboid]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate cuboid %v", c)
		}
		seen[c] = true
		if !l.Contains(c) {
			t.Fatalf("Contains(%v) = false", c)
		}
		if !s.OLayer().DominatedBy(c) || !c.DominatedBy(s.MLayer()) {
			t.Fatalf("cuboid %v outside layer bounds", c)
		}
	}
	if l.Contains(MustCuboid(3, 3, 3)) {
		t.Fatal("Contains should reject outside cuboid")
	}
	if l.Schema() != s {
		t.Fatal("Schema accessor")
	}
}

func TestLatticeChildrenParents(t *testing.T) {
	s := exampleSchema(t)
	l := NewLattice(s)
	o := s.OLayer() // (1,0,1)
	kids := l.Children(o)
	if len(kids) != 3 {
		t.Fatalf("o-layer children = %d, want 3", len(kids))
	}
	m := s.MLayer()
	if len(l.Children(m)) != 0 {
		t.Fatal("m-layer has no children")
	}
	if len(l.Parents(o)) != 0 {
		t.Fatal("o-layer has no parents")
	}
	parents := l.Parents(m)
	if len(parents) != 3 {
		t.Fatalf("m-layer parents = %d, want 3", len(parents))
	}
	// children/parents are inverse relations.
	for _, p := range parents {
		found := false
		for _, k := range l.Children(p) {
			if k.Equal(m) {
				found = true
			}
		}
		if !found {
			t.Fatalf("m-layer missing from children of %v", p)
		}
	}
}

func TestDefaultPath(t *testing.T) {
	s := exampleSchema(t)
	l := NewLattice(s)
	p := l.DefaultPath()
	// Steps: A 1→2 (1 step), B 0→2 (2 steps), C 1→2 (1 step) = 5 cuboids.
	if len(p.Cuboids) != 5 {
		t.Fatalf("path length = %d, want 5", len(p.Cuboids))
	}
	if !p.Cuboids[0].Equal(s.OLayer()) || !p.Cuboids[len(p.Cuboids)-1].Equal(s.MLayer()) {
		t.Fatal("path endpoints wrong")
	}
	// Consecutive cuboids differ by one level in one dimension.
	for i := 1; i < len(p.Cuboids); i++ {
		diff := 0
		for d := 0; d < 3; d++ {
			diff += p.Cuboids[i].Level(d) - p.Cuboids[i-1].Level(d)
		}
		if diff != 1 {
			t.Fatalf("step %d drills %d levels", i, diff)
		}
	}
	if !p.OnPath(s.OLayer()) || p.OnPath(MustCuboid(2, 0, 1)) == p.OnPath(MustCuboid(2, 2, 1)) && false {
		t.Fatal("OnPath endpoint check")
	}
	if p.Depth(s.OLayer()) != 0 || p.Depth(s.MLayer()) != 4 {
		t.Fatal("Depth endpoints")
	}
	if p.Depth(MustCuboid(7, 7, 7)) != -1 {
		t.Fatal("Depth of non-path cuboid")
	}
}

func TestPathFromSteps(t *testing.T) {
	s := exampleSchema(t)
	l := NewLattice(s)
	// Paper-style path: drill B fully first, then A, then C.
	p, err := l.PathFromSteps([]int{1, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cuboids) != 5 {
		t.Fatalf("path length = %d", len(p.Cuboids))
	}
	want := []Cuboid{
		MustCuboid(1, 0, 1),
		MustCuboid(1, 1, 1),
		MustCuboid(1, 2, 1),
		MustCuboid(2, 2, 1),
		MustCuboid(2, 2, 2),
	}
	for i, c := range want {
		if !p.Cuboids[i].Equal(c) {
			t.Fatalf("path[%d] = %v, want %v", i, p.Cuboids[i], c)
		}
	}
	// Invalid step sequences.
	if _, err := l.PathFromSteps([]int{0, 0}); err == nil {
		t.Fatal("expected over-drill error")
	}
	if _, err := l.PathFromSteps([]int{9}); err == nil {
		t.Fatal("expected unknown-dimension error")
	}
	if _, err := l.PathFromSteps([]int{1}); err == nil {
		t.Fatal("expected incomplete-path error")
	}
}

func TestPathCovering(t *testing.T) {
	s := exampleSchema(t)
	l := NewLattice(s)
	p, _ := l.PathFromSteps([]int{1, 1, 0, 2})
	// (2,0,1) is off-path; the shallowest dominating path cuboid is
	// (2,2,1) at depth 3.
	cov := p.Covering(MustCuboid(2, 0, 1))
	if !cov.Equal(MustCuboid(2, 2, 1)) {
		t.Fatalf("Covering = %v", cov)
	}
	// A path cuboid covers itself.
	if !p.Covering(MustCuboid(1, 1, 1)).Equal(MustCuboid(1, 1, 1)) {
		t.Fatal("path cuboid should cover itself")
	}
	// (1,0,2): first dominating path cuboid is the m-layer (2,2,2).
	if !p.Covering(MustCuboid(1, 0, 2)).Equal(s.MLayer()) {
		t.Fatalf("Covering = %v", p.Covering(MustCuboid(1, 0, 2)))
	}
}
