package htree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/regression"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// paperSchema reproduces Example 5's shape: A, B, C with m=(A2,B2,C2) and
// o=(A1,*,C1). Cardinalities chosen so that the cardinality order is
// exactly the paper's ⟨A1,B1,C1,C2,A2,B2⟩:
// card(A1)<card(B1)<card(C1)<card(C2)<card(A2)<card(B2).
func paperSchema(t *testing.T) *cube.Schema {
	t.Helper()
	ha, _ := cube.NewFanoutHierarchy("A", 7, 2)  // A1=7,  A2=49
	hb, _ := cube.NewFanoutHierarchy("B", 10, 2) // B1=10, B2=100
	hc, _ := cube.NewFanoutHierarchy("C", 4, 2)  // C1=4,  C2=16... need C1>B1? No: want B1<C1.
	_ = hc
	// Recompute: need card(A1)=7 < card(B1)=10 < card(C1)=12 < card(C2) <
	// card(A2)=49 < card(B2)=100. C fanout must give C1=12, C2=24 via
	// uneven fanouts — FanoutHierarchy is uniform, so use fanout 12 with
	// 2 levels: C1=12, C2=144 — but 144 > 49 breaks the order. Use a
	// named hierarchy for C instead.
	hcNamed := cube.NewNamedHierarchy("C")
	c1 := make([]string, 12)
	for i := range c1 {
		c1[i] = string(rune('a' + i))
	}
	if err := hcNamed.AddLevel(c1, nil); err != nil {
		t.Fatal(err)
	}
	c2 := make([]string, 24)
	parents := make([]int32, 24)
	for i := range c2 {
		c2[i] = "c2-" + string(rune('a'+i))
		parents[i] = int32(i / 2)
	}
	if err := hcNamed.AddLevel(c2, parents); err != nil {
		t.Fatal(err)
	}
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 0},
		cube.Dimension{Name: "C", Hierarchy: hcNamed, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCardinalityOrderMatchesPaper(t *testing.T) {
	s := paperSchema(t)
	attrs := CardinalityOrder(s)
	// Expected: A1(7), B1(10), C1(12), C2(24), A2(49), B2(100).
	want := []Attribute{{0, 1}, {1, 1}, {2, 1}, {2, 2}, {0, 2}, {1, 2}}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %v", attrs)
	}
	for i, a := range want {
		if attrs[i] != a {
			t.Fatalf("attrs[%d] = %v, want %v (full: %v)", i, attrs[i], a, attrs)
		}
	}
}

func TestPathOrder(t *testing.T) {
	s := paperSchema(t)
	l := cube.NewLattice(s)
	// Paper path: (A1,C1) → B1 → B2 → A2 → C2.
	p, err := l.PathFromSteps([]int{1, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	attrs := PathOrder(s, p)
	want := []Attribute{{0, 1}, {2, 1}, {1, 1}, {1, 2}, {0, 2}, {2, 2}}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %v", attrs)
	}
	for i, a := range want {
		if attrs[i] != a {
			t.Fatalf("attrs[%d] = %v, want %v (full: %v)", i, attrs[i], a, attrs)
		}
	}
	// Depth oAttrs+i must materialize path cuboid i.
	tree, err := New(s, attrs)
	if err != nil {
		t.Fatal(err)
	}
	oAttrs := 2 // A1, C1
	for i, pc := range p.Cuboids {
		if got := tree.CuboidAtDepth(oAttrs + i); !got.Equal(pc) {
			t.Fatalf("depth %d cuboid = %v, want %v", oAttrs+i, got, pc)
		}
	}
}

func TestNewValidation(t *testing.T) {
	s := paperSchema(t)
	if _, err := New(s, nil); err == nil {
		t.Fatal("expected empty-attrs error")
	}
	if _, err := New(s, []Attribute{{0, 2}, {1, 2}}); err == nil {
		t.Fatal("expected missing m-level attribute error (dim C)")
	}
	if _, err := New(s, []Attribute{{0, 2}, {1, 2}, {2, 2}, {0, 2}}); err == nil {
		t.Fatal("expected duplicate attribute error")
	}
	if _, err := New(s, []Attribute{{9, 1}}); err == nil {
		t.Fatal("expected bad dimension error")
	}
	if _, err := New(s, []Attribute{{0, 7}}); err == nil {
		t.Fatal("expected bad level error")
	}
}

func isbAt(base, slope float64) regression.ISB {
	return regression.ISB{Tb: 0, Te: 9, Base: base, Slope: slope}
}

func TestInsertAndLeafMerge(t *testing.T) {
	s := paperSchema(t)
	tree, err := New(s, CardinalityOrder(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]int32{5, 17, 3}, isbAt(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]int32{5, 17, 3}, isbAt(2, 0.25)); err != nil {
		t.Fatal(err)
	}
	if tree.LeafCount() != 1 {
		t.Fatalf("LeafCount = %d, want 1 (same m-cell)", tree.LeafCount())
	}
	leaf := tree.Leaves()[0]
	if !almostEq(leaf.Measure.Base, 3, 1e-12) || !almostEq(leaf.Measure.Slope, 0.75, 1e-12) {
		t.Fatalf("merged leaf = %v", leaf.Measure)
	}
	if leaf.Tuples != 2 {
		t.Fatalf("leaf tuples = %d", leaf.Tuples)
	}
	// A different m-cell creates a second leaf.
	if err := tree.Insert([]int32{6, 17, 3}, isbAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if tree.LeafCount() != 2 {
		t.Fatalf("LeafCount = %d, want 2", tree.LeafCount())
	}
}

func TestInsertValidation(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	if err := tree.Insert([]int32{1, 2}, isbAt(0, 0)); err == nil {
		t.Fatal("expected member-count error")
	}
	if err := tree.Insert([]int32{-1, 0, 0}, isbAt(0, 0)); err == nil {
		t.Fatal("expected negative member error")
	}
	if err := tree.Insert([]int32{0, 0, 99}, isbAt(0, 0)); err == nil {
		t.Fatal("expected out-of-range member error")
	}
	// Mismatched intervals at the same leaf must fail aggregation.
	if err := tree.Insert([]int32{0, 0, 0}, isbAt(1, 1)); err != nil {
		t.Fatal(err)
	}
	bad := regression.ISB{Tb: 5, Te: 9, Base: 1, Slope: 1}
	if err := tree.Insert([]int32{0, 0, 0}, bad); err == nil {
		t.Fatal("expected interval mismatch at leaf merge")
	}
}

func TestPrefixSharing(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	// Two m-cells sharing the A1 ancestor (members 5 and 6 of A2 share
	// parent 0 when fanout is 7... members 5,6 → parent 0; choose 5 and 6).
	_ = tree.Insert([]int32{5, 17, 3}, isbAt(1, 0))
	_ = tree.Insert([]int32{6, 17, 3}, isbAt(1, 0))
	// Shared prefix: A1 node (parent 0), B1 node (17/10=1), C1, C2 —
	// divergence only at A2 → 6 shared-prefix nodes? Count total:
	// root + A1 + B1 + C1 + C2 + 2×A2 + 2×B2 = 9 nodes.
	if tree.NodeCount() != 9 {
		t.Fatalf("NodeCount = %d, want 9", tree.NodeCount())
	}
}

func TestPropagateUpAndHeaders(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	inputs := []struct {
		members []int32
		isb     regression.ISB
	}{
		{[]int32{5, 17, 3}, isbAt(1, 0.5)},
		{[]int32{6, 17, 3}, isbAt(2, -0.25)},
		{[]int32{40, 90, 20}, isbAt(3, 1)},
		{[]int32{41, 17, 3}, isbAt(4, 0)},
	}
	for _, in := range inputs {
		if err := tree.Insert(in.members, in.isb); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.PropagateUp(); err != nil {
		t.Fatal(err)
	}
	// Root measure = sum of all.
	root := tree.Root()
	if !root.HasMeasure || !almostEq(root.Measure.Base, 10, 1e-12) || !almostEq(root.Measure.Slope, 1.25, 1e-12) {
		t.Fatalf("root measure = %v", root.Measure)
	}
	// Header tables, walked through their side-links: attribute 0 is A1,
	// whose members are 0 (5/7, 6/7) and 5 (40/7, 41/7), one node each;
	// attribute 1 is B1, where member 1 (17/10) sits under both A1
	// members, chained in creation order, and member 9 (90/10) under A1=5.
	for k, want := range map[int][][2]int32{
		1: {{0, 0}, {5, 0}},         // (member, parent's member)
		2: {{1, 0}, {1, 5}, {9, 5}}, // member 1's chain: A1=0's node first
	} {
		nodes := tree.NodesAtDepth(k)
		got := make([][2]int32, len(nodes))
		for i, n := range nodes {
			got[i] = [2]int32{n.Member, n.Parent.Member}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("depth %d side-links = %v, want %v", k, got, want)
		}
	}
	if tree.NodesAtDepth(0) != nil || tree.NodesAtDepth(99) != nil {
		t.Fatal("out-of-range NodesAtDepth must be nil")
	}
}

func TestPropagateUpMissingLeafMeasure(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	if err := tree.PropagateUp(); err != nil {
		t.Fatal(err) // empty tree: root with no children is fine
	}
}

func TestCellKeyOf(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	_ = tree.Insert([]int32{5, 17, 3}, isbAt(1, 0.5))
	leaf := tree.Leaves()[0]
	key := tree.CellKeyOf(leaf)
	if !key.Cuboid.Equal(s.MLayer()) {
		t.Fatalf("leaf cuboid = %v", key.Cuboid)
	}
	if key.Member(0) != 5 || key.Member(1) != 17 || key.Member(2) != 3 {
		t.Fatalf("leaf members = %v", key.Members)
	}
	// An interior node at depth 3 (A1,B1,C1 prefix) has cuboid (1,1,1).
	n := leaf
	for n.Depth > 3 {
		n = n.Parent
	}
	k3 := tree.CellKeyOf(n)
	if !k3.Cuboid.Equal(cube.MustCuboid(1, 1, 1)) {
		t.Fatalf("depth-3 cuboid = %v", k3.Cuboid)
	}
	if k3.Member(0) != 0 || k3.Member(1) != 1 || k3.Member(2) != 1 {
		t.Fatalf("depth-3 members = %v", k3.Members)
	}
}

func TestCuboidAtDepthCardinalityOrder(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	// Order is A1,B1,C1,C2,A2,B2. Depth 4 → (A1,B1,C2).
	if got := tree.CuboidAtDepth(4); !got.Equal(cube.MustCuboid(1, 1, 2)) {
		t.Fatalf("depth-4 cuboid = %v", got)
	}
	// Depth 0 → all-ALL.
	if got := tree.CuboidAtDepth(0); !got.Equal(cube.MustCuboid(0, 0, 0)) {
		t.Fatalf("depth-0 cuboid = %v", got)
	}
}

func TestBytesEstimate(t *testing.T) {
	s := paperSchema(t)
	tree, _ := New(s, CardinalityOrder(s))
	if tree.BytesEstimate() <= 0 {
		t.Fatal("empty tree must still account the root")
	}
	before := tree.BytesEstimate()
	_ = tree.Insert([]int32{5, 17, 3}, isbAt(1, 0.5))
	if tree.BytesEstimate() <= before {
		t.Fatal("estimate must grow with nodes")
	}
}

// Property: for random tuple sets, (a) the root measure equals the sum of
// all tuple measures, (b) every interior node's measure equals the sum of
// its leaf descendants, and (c) leaf count equals the number of distinct
// m-cells.
func TestPropagationInvariantsProperty(t *testing.T) {
	s := paperSchema(t)
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, err := New(s, CardinalityOrder(s))
		if err != nil {
			return false
		}
		n := 1 + r.Intn(120)
		type cellAgg struct{ base, slope float64 }
		direct := map[[3]int32]*cellAgg{}
		var totBase, totSlope float64
		for i := 0; i < n; i++ {
			m := [3]int32{int32(r.Intn(49)), int32(r.Intn(100)), int32(r.Intn(24))}
			isb := regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64()}
			if tree.Insert(m[:], isb) != nil {
				return false
			}
			if direct[m] == nil {
				direct[m] = &cellAgg{}
			}
			direct[m].base += isb.Base
			direct[m].slope += isb.Slope
			totBase += isb.Base
			totSlope += isb.Slope
		}
		if tree.LeafCount() != len(direct) {
			return false
		}
		if err := tree.PropagateUp(); err != nil {
			return false
		}
		root := tree.Root()
		if !almostEq(root.Measure.Base, totBase, 1e-7) || !almostEq(root.Measure.Slope, totSlope, 1e-7) {
			return false
		}
		// Each leaf matches its direct aggregation.
		for _, leaf := range tree.Leaves() {
			key := tree.CellKeyOf(leaf)
			m := [3]int32{key.Member(0), key.Member(1), key.Member(2)}
			want := direct[m]
			if want == nil {
				return false
			}
			if !almostEq(leaf.Measure.Base, want.base, 1e-7) || !almostEq(leaf.Measure.Slope, want.slope, 1e-7) {
				return false
			}
		}
		// Interior nodes: sum of children equals own measure (spot-check
		// via recursion already guaranteed by PropagateUp; verify depth 1).
		for _, n1 := range tree.NodesAtDepth(1) {
			var sb, ss float64
			for _, c := range n1.Children {
				sb += c.Measure.Base
				ss += c.Measure.Slope
			}
			if !almostEq(n1.Measure.Base, sb, 1e-7) || !almostEq(n1.Measure.Slope, ss, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestResetRebuildsAsFresh: a tree that held a large batch, was Reset, and
// then takes a small one is the tree New builds from the small one — same
// nodes per depth, same leaves in the same order with the same cells and
// measures, same header members — and the arena chunks the small build did
// not need are let go by the Reset after it.
