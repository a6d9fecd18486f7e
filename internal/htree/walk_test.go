package htree

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/regression"
)

func apexSchema(t *testing.T) *cube.Schema {
	t.Helper()
	ha, _ := cube.NewFanoutHierarchy("A", 3, 2)
	hb, _ := cube.NewFanoutHierarchy("B", 2, 2)
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 0},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// PathOrder with an all-ALL o-layer has no o-attributes: the first path
// step introduces the first attribute.
func TestPathOrderApexOLayer(t *testing.T) {
	s := apexSchema(t)
	l := cube.NewLattice(s)
	p := l.DefaultPath()
	attrs := PathOrder(s, p)
	// Path: (0,0)→(1,0)→(2,0)→(2,1)→(2,2): attrs A1,A2,B1,B2.
	want := []Attribute{{0, 1}, {0, 2}, {1, 1}, {1, 2}}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %v", attrs)
	}
	for i, a := range want {
		if attrs[i] != a {
			t.Fatalf("attrs[%d] = %v, want %v", i, attrs[i], a)
		}
	}
	tree, err := New(s, attrs)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 0 materializes the apex cuboid.
	if got := tree.CuboidAtDepth(0); !got.Equal(cube.MustCuboid(0, 0)) {
		t.Fatalf("depth-0 cuboid = %v", got)
	}
	for i, pc := range p.Cuboids {
		if got := tree.CuboidAtDepth(i); !got.Equal(pc) {
			t.Fatalf("depth %d = %v, want %v", i, got, pc)
		}
	}
}

func TestWalkAtDepth(t *testing.T) {
	s := apexSchema(t)
	l := cube.NewLattice(s)
	tree, err := New(s, PathOrder(s, l.DefaultPath()))
	if err != nil {
		t.Fatal(err)
	}
	isb := regression.ISB{Tb: 0, Te: 9, Base: 1, Slope: 1}
	for a := int32(0); a < 9; a++ {
		for b := int32(0); b < 4; b++ {
			if err := tree.Insert([]int32{a, b}, isb); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.PropagateUp(); err != nil {
		t.Fatal(err)
	}
	// Walking the root at leaf depth visits every leaf exactly once.
	count := 0
	tree.Root().WalkAtDepth(len(tree.attrs), func(n *Node) { count++ })
	if count != tree.LeafCount() {
		t.Fatalf("walked %d leaves, want %d", count, tree.LeafCount())
	}
	// Walking a depth-1 node (one A1 member) at depth 2 visits its A2
	// children: fanout 3.
	n1 := tree.NodesAtDepth(1)[0]
	count = 0
	n1.WalkAtDepth(2, func(n *Node) {
		count++
		if n.Parent != n1 {
			t.Fatal("walked node outside the subtree")
		}
	})
	if count != 3 {
		t.Fatalf("depth-2 walk visited %d nodes, want 3", count)
	}
	// Walking at the node's own depth yields the node itself.
	self := 0
	n1.WalkAtDepth(1, func(n *Node) {
		self++
		if n != n1 {
			t.Fatal("self-walk visited a different node")
		}
	})
	if self != 1 {
		t.Fatalf("self-walk count = %d", self)
	}
	// Walking shallower than the node visits nothing.
	none := 0
	leaf := tree.Leaves()[0]
	leaf.WalkAtDepth(1, func(n *Node) { none++ })
	if none != 0 {
		t.Fatalf("shallow walk visited %d nodes", none)
	}
}

// The subtree measures visited by WalkAtDepth must sum to the subtree
// root's measure at any depth (partition property used by the drill).
func TestWalkAtDepthPartitionsMeasure(t *testing.T) {
	s := apexSchema(t)
	l := cube.NewLattice(s)
	tree, err := New(s, PathOrder(s, l.DefaultPath()))
	if err != nil {
		t.Fatal(err)
	}
	for a := int32(0); a < 9; a++ {
		for b := int32(0); b < 4; b++ {
			isb := regression.ISB{Tb: 0, Te: 9, Base: float64(a), Slope: float64(b)}
			if err := tree.Insert([]int32{a, b}, isb); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.PropagateUp(); err != nil {
		t.Fatal(err)
	}
	for _, n1 := range tree.NodesAtDepth(1) {
		for depth := 2; depth <= len(tree.attrs); depth++ {
			var base, slope float64
			n1.WalkAtDepth(depth, func(n *Node) {
				base += n.Measure.Base
				slope += n.Measure.Slope
			})
			if !almostEq(base, n1.Measure.Base, 1e-9) || !almostEq(slope, n1.Measure.Slope, 1e-9) {
				t.Fatalf("depth %d partition of node %d: (%g,%g) vs (%g,%g)",
					depth, n1.Member, base, slope, n1.Measure.Base, n1.Measure.Slope)
			}
		}
	}
}
