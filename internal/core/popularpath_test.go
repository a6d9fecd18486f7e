package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// popularPathDigest hashes everything of a popular-path result that must
// not move: every o-cell and exception (key, and the bits of Base and
// Slope), each o-cell's supporters in order, and every non-timing Stats
// field.
func popularPathDigest(res *Result) string {
	h := sha256.New()
	cell := func(tag string, c Cell) {
		fmt.Fprintf(h, "%s %v %x %x\n", tag, c.Key, math.Float64bits(c.ISB.Base), math.Float64bits(c.ISB.Slope))
	}
	for _, c := range res.OCells() {
		cell("o", c)
	}
	for _, c := range res.ExceptionCells() {
		cell("e", c)
	}
	for _, o := range res.OCells() {
		for c := range res.Supporters(o.Key) {
			fmt.Fprintf(h, "s %v %v\n", o.Key, c.Key)
		}
	}
	st := res.Stats
	st.BuildTime, st.CubeTime = 0, 0
	fmt.Fprintf(h, "%+v\n", st)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopularPathPinned pins popular-path's output bit for bit — cells,
// supporters order and cost statistics — on seeded cases covering the
// default path, a custom path over an irregular hierarchy, an apex
// o-layer, duplicate unsorted tuples, and a high and a low threshold.
// A rewrite of the algorithm must leave every digest as it is.
func TestPopularPathPinned(t *testing.T) {
	nettraffic := func(t *testing.T) *cube.Schema {
		a, err := cube.NewFanoutHierarchy("proto", 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cube.NewSchema(
			cube.Dimension{Name: "proto", Hierarchy: a, MLevel: 2, OLevel: 1},
			cube.Dimension{Name: "region", Hierarchy: randomNamed(t, rand.New(rand.NewSource(5)), 3), MLevel: 3, OLevel: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	apex := func(t *testing.T) *cube.Schema {
		ha, _ := cube.NewFanoutHierarchy("A", 3, 2)
		hb, _ := cube.NewFanoutHierarchy("B", 2, 3)
		s, err := cube.NewSchema(
			cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 0},
			cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 3, OLevel: 0},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name   string
		schema func(*testing.T) *cube.Schema
		steps  []int // nil: the default path
		inputs func(*cube.Schema) []Input
		thr    float64
		want   string
	}{
		{"default", func(t *testing.T) *cube.Schema { return testSchema(t, 3, 3, 3) }, nil,
			func(s *cube.Schema) []Input { return randomInputs(s, 400, 1, 31) }, 0.8,
			"c79c9a23db587fd83c651b7448420358f554004cd58d010870d23406a4f3d939"},
		{"nettraffic-steps", nettraffic, []int{0, 1, 1},
			func(s *cube.Schema) []Input { return randomInputs(s, 300, 1, 32) }, 0.6,
			"c804a1111e611e07adef27a25af7daa992ccfec600c6a302d5633a627f19ec84"},
		{"apex", apex, nil,
			func(s *cube.Schema) []Input { return randomInputs(s, 120, 1, 33) }, 0.5,
			"a1b3eed7d5b1f8335b5cd8d29ec61826e7b6ee13f9ce8f00bd22d648ca60b671"},
		{"duplicates-unsorted", func(t *testing.T) *cube.Schema { return testSchema(t, 2, 2, 3) }, []int{1, 0},
			func(s *cube.Schema) []Input {
				in := randomInputs(s, 500, 1, 34) // 500 tuples over 81 m-cells
				return append(in, in[:50]...)
			}, 0.7,
			"c7d269f5547600a094d1d78b57d5aaf7a165bde2177e44e6d860b134d8f0ed54"},
		{"high-threshold", func(t *testing.T) *cube.Schema { return testSchema(t, 2, 3, 3) }, nil,
			func(s *cube.Schema) []Input { return randomInputs(s, 400, 1, 35) }, 3,
			"1b16e165f50243970b2070c9a853808c0c9371727441917ba4865149007b285d"},
		{"low-threshold", func(t *testing.T) *cube.Schema { return testSchema(t, 2, 3, 3) }, []int{1, 0, 1, 0},
			func(s *cube.Schema) []Input { return randomInputs(s, 400, 1, 36) }, 0.05,
			"3dbc9af2b6bbd54daf12541a50b1a6122c64f76b4b2ccf55e4fb7fb1b2ec048a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.schema(t)
			lattice := cube.NewLattice(s)
			path := lattice.DefaultPath()
			if tc.steps != nil {
				var err error
				if path, err = lattice.PathFromSteps(tc.steps); err != nil {
					t.Fatal(err)
				}
			}
			res, err := PopularPath(s, tc.inputs(s), exception.Global(tc.thr), path)
			if err != nil {
				t.Fatal(err)
			}
			if got := popularPathDigest(res); got != tc.want {
				t.Errorf("digest %s, pinned %s (%d o-cells, %d exceptions, stats %+v)",
					got, tc.want, res.NumOCells(), res.NumExceptions(), res.Stats)
			}
		})
	}
}

// paperSchema has Example 5's shape: A, B, C with m-layer (A2,B2,C2) and
// o-layer (A1,*,C1), cardinalities A1 7 < B1 10 < C1 12 < C2 24 < A2 49 <
// B2 100, so Algorithm 1's attribute order is the paper's
// ⟨A1,B1,C1,C2,A2,B2⟩.
func paperSchema(t *testing.T) *cube.Schema {
	t.Helper()
	ha, _ := cube.NewFanoutHierarchy("A", 7, 2)
	hb, _ := cube.NewFanoutHierarchy("B", 10, 2)
	hc := cube.NewNamedHierarchy("C")
	c1, c2, parents := make([]string, 12), make([]string, 24), make([]int32, 24)
	for i := range c2 {
		c2[i], parents[i] = fmt.Sprintf("c2.%d", i), int32(i/2)
	}
	for i := range c1 {
		c1[i] = fmt.Sprintf("c1.%d", i)
	}
	if err := hc.AddLevel(c1, nil); err != nil {
		t.Fatal(err)
	}
	if err := hc.AddLevel(c2, parents); err != nil {
		t.Fatal(err)
	}
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 0},
		cube.Dimension{Name: "C", Hierarchy: hc, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCardinalityOrderMatchesPaper: Algorithm 1's modelled tree takes
// Example 5's attribute order, so its depths hold the prefix cuboids
// (A1), (A1,B1), (A1,B1,C1), (A1,B1,C2), (A2,B1,C2), (A2,B2,C2).
func TestCardinalityOrderMatchesPaper(t *testing.T) {
	s := paperSchema(t)
	want := []cube.Cuboid{
		cube.MustCuboid(1, 0, 0), cube.MustCuboid(1, 1, 0), cube.MustCuboid(1, 1, 1),
		cube.MustCuboid(1, 1, 2), cube.MustCuboid(2, 1, 2), cube.MustCuboid(2, 2, 2),
	}
	if got := treeDepths(s); !slices.Equal(got, want) {
		t.Fatalf("depths %v, want %v", got, want)
	}
	wantAttrs := []pathAttr{{0, 1}, {1, 1}, {2, 1}, {2, 2}, {0, 2}, {1, 2}}
	if got := cardinalityOrder(s); !slices.Equal(got, wantAttrs) {
		t.Fatalf("reference order %v, want %v", got, wantAttrs)
	}
}

// TestCuboidAtDepthCardinalityOrder: in Example 5's attribute order the
// reference tree's root holds the apex and its depth 4 (A1,B1,C2), and
// every depth below the root holds the cuboid m/o-cubing models there.
func TestCuboidAtDepthCardinalityOrder(t *testing.T) {
	s := paperSchema(t)
	tree, err := newRefTree(s, cardinalityOrder(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.cuboidAtDepth(s, 0); got != cube.MustCuboid(0, 0, 0) {
		t.Fatalf("depth 0 holds %v, want the apex", got)
	}
	if got := tree.cuboidAtDepth(s, 4); got != cube.MustCuboid(1, 1, 2) {
		t.Fatalf("depth 4 holds %v, want (A1,B1,C2)", got)
	}
	for k, c := range treeDepths(s) {
		if want := tree.cuboidAtDepth(s, k+1); c != want {
			t.Fatalf("depth %d models %v, the reference tree holds %v", k+1, c, want)
		}
	}
}

// TestBytesEstimate: both kernels' byte estimates account the modelled
// tree from its root down. One tuple of the paper schema is a chain of
// seven nodes (the root and six attributes); a duplicate tuple adds
// nothing; a second m-cell adds nodes and at least their bytes.
func TestBytesEstimate(t *testing.T) {
	s := paperSchema(t)
	isb := regression.ISB{Te: 9, Base: 1, Slope: 1}
	one := []Input{{Members: []int32{5, 17, 3}, Measure: isb}}
	dup := append(slices.Clone(one), one[0])
	two := append(slices.Clone(one), Input{Members: []int32{6, 17, 3}, Measure: isb})
	thr := exception.Global(1e9) // no exceptions: only the tree and o-layer are retained
	path := cube.NewLattice(s).DefaultPath()
	for _, kernel := range []struct {
		name string
		run  func([]Input) (*Result, error)
	}{
		{"m/o-cubing", func(in []Input) (*Result, error) { return MOCubing(s, in, thr) }},
		{"popular-path", func(in []Input) (*Result, error) { return PopularPath(s, in, thr, path) }},
	} {
		stats := func(in []Input) Stats {
			res, err := kernel.run(in)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		st1, stDup, st2 := stats(one), stats(dup), stats(two)
		if st1.TreeNodes != 7 || st1.BytesRetained < 7*bytesPerNode {
			t.Errorf("%s: one tuple gives %d nodes, %d bytes; want 7 nodes, at least %d bytes", kernel.name, st1.TreeNodes, st1.BytesRetained, 7*bytesPerNode)
		}
		if stDup.TreeNodes != st1.TreeNodes || stDup.BytesRetained != st1.BytesRetained {
			t.Errorf("%s: a duplicate tuple moves %d nodes, %d bytes to %d, %d", kernel.name, st1.TreeNodes, st1.BytesRetained, stDup.TreeNodes, stDup.BytesRetained)
		}
		if grown := int64(st2.TreeNodes - st1.TreeNodes); grown <= 0 || st2.BytesRetained-st1.BytesRetained < grown*bytesPerNode {
			t.Errorf("%s: a second m-cell moves %d nodes, %d bytes to %d, %d", kernel.name, st1.TreeNodes, st1.BytesRetained, st2.TreeNodes, st2.BytesRetained)
		}
	}
}

// TestInsertValidation: both kernels refuse a tuple with the wrong member
// count, a negative member or one past its m-level's cardinality, and one
// whose interval differs from the batch's, even in the same m-cell.
func TestInsertValidation(t *testing.T) {
	s := paperSchema(t)
	isb := regression.ISB{Te: 9, Base: 1, Slope: 1}
	path := cube.NewLattice(s).DefaultPath()
	for _, tc := range []struct {
		name string
		bad  Input
	}{
		{"member count", Input{Members: []int32{1, 2}, Measure: isb}},
		{"negative member", Input{Members: []int32{-1, 0, 0}, Measure: isb}},
		{"member past C2", Input{Members: []int32{0, 0, 99}, Measure: isb}},
		{"interval", Input{Members: []int32{0, 0, 0}, Measure: regression.ISB{Tb: 5, Te: 9, Base: 1, Slope: 1}}},
	} {
		inputs := []Input{{Members: []int32{0, 0, 0}, Measure: isb}, tc.bad}
		if _, err := MOCubing(s, inputs, exception.Global(1)); !errors.Is(err, ErrInput) {
			t.Errorf("%s: MOCubing returned %v, want ErrInput", tc.name, err)
		}
		if _, err := PopularPath(s, inputs, exception.Global(1), path); !errors.Is(err, ErrInput) {
			t.Errorf("%s: PopularPath returned %v, want ErrInput", tc.name, err)
		}
	}
}

// TestPathAttrsValidation: the path key has columns only for a path that
// starts at the o-layer, drills one dimension one level per step and ends
// at the m-layer; pathAttrs refuses every other path on the paper schema.
func TestPathAttrsValidation(t *testing.T) {
	s := paperSchema(t)
	good := mustPath(t, cube.NewLattice(s), []int{1, 1, 0, 2}).Cuboids // (1,0,1)→(1,1,1)→(1,2,1)→(2,2,1)→(2,2,2)
	for _, tc := range []struct {
		name    string
		cuboids []cube.Cuboid
	}{
		{"no cuboids", nil},
		{"stops short of C2", good[:len(good)-1]},
		{"a step drilling nothing", append([]cube.Cuboid{good[0]}, good...)},
		{"a step of two levels", append([]cube.Cuboid{good[0]}, good[2:]...)},
		{"a step in two dimensions", []cube.Cuboid{good[0], cube.MustCuboid(2, 1, 1), good[2], good[3], good[4]}},
		{"past the m-layer", append(slices.Clone(good), good[4].WithLevel(0, 3))},
		{"another schema's dimensions", cube.NewLattice(testSchema(t, 2, 2, 3)).DefaultPath().Cuboids},
	} {
		if attrs, _, err := pathAttrs(s, cube.Path{Cuboids: tc.cuboids}); !errors.Is(err, ErrInput) || attrs != nil {
			t.Errorf("%s: pathAttrs returned %v, %v; want ErrInput", tc.name, attrs, err)
		}
	}
}

// TestPrefixSharing: two m-cells that differ only in A2 share the
// modelled tree's path down to C2 — root, A1, B1, C1, C2, then two A2 and
// two B2 nodes.
func TestPrefixSharing(t *testing.T) {
	s := paperSchema(t)
	isb := regression.ISB{Te: 9, Base: 1}
	inputs := []Input{{Members: []int32{5, 17, 3}, Measure: isb}, {Members: []int32{6, 17, 3}, Measure: isb}}
	res, err := MOCubing(s, inputs, exception.Global(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TreeNodes != 9 {
		t.Fatalf("%d nodes, want 9", res.Stats.TreeNodes)
	}
}

// TestPathOrder: the paper's path (A1,C1)→B1→B2→A2→C2 keys the leaves by
// A1, C1, B1, B2, A2, C2, and prefix 2+i of that key is path cuboid i.
func TestPathOrder(t *testing.T) {
	s := paperSchema(t)
	p := mustPath(t, cube.NewLattice(s), []int{1, 1, 0, 2})
	attrs, oAttrs, err := pathAttrs(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []pathAttr{{0, 1}, {2, 1}, {1, 1}, {1, 2}, {0, 2}, {2, 2}}; !slices.Equal(attrs, want) || oAttrs != 2 {
		t.Fatalf("attrs %v (%d for the o-layer), want %v (2)", attrs, oAttrs, want)
	}
	if want := pathOrder(s, p); !slices.Equal(attrs, want) {
		t.Fatalf("attrs %v, the reference tree's %v", attrs, want)
	}
}

// TestPathOrderApexOLayer: with an all-ALL o-layer no column keys the
// o-layer, and the first step's level is the first column.
func TestPathOrderApexOLayer(t *testing.T) {
	s := apexSchema(t)
	attrs, oAttrs, err := pathAttrs(s, cube.NewLattice(s).DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	if want := []pathAttr{{0, 1}, {0, 2}, {1, 1}, {1, 2}}; !slices.Equal(attrs, want) || oAttrs != 0 {
		t.Fatalf("attrs %v (%d for the o-layer), want %v (0)", attrs, oAttrs, want)
	}
}

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

// apexGrid rolls the apex schema's full 9×4 grid of m-cells, cell (a,b)
// measuring (a,b), up its default path A1→A2→B1→B2.
func apexGrid(t *testing.T) (*cube.Schema, cube.Path, []pathLevel) {
	t.Helper()
	s := apexSchema(t)
	var inputs []Input
	for a := int32(0); a < 9; a++ {
		for b := int32(0); b < 4; b++ {
			inputs = append(inputs, Input{Members: []int32{a, b}, Measure: regression.ISB{Te: 9, Base: float64(a), Slope: float64(b)}})
		}
	}
	path := cube.NewLattice(s).DefaultPath()
	levels, _, err := rollUpPath(NewWorkspace(s), inputs, path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path, levels
}

// cellsBelow is the drill's search: the cells of path cuboid j whose leaf
// ranges start inside that of cell k of the coarser path cuboid i.
func cellsBelow(levels []pathLevel, i, k, j int) []Cell {
	lo, _ := slices.BinarySearch(levels[j].starts, levels[i].starts[k])
	hi, _ := slices.BinarySearch(levels[j].starts, levels[i].starts[k+1])
	return levels[j].cells[lo:hi]
}

// TestLeafRangeSearch: searching a path cell's leaf range in a finer path
// cuboid finds the cells below it. On the apex grid the apex covers all 36
// leaves, each A1 cell its three A2 cells, and a cell searched in its own
// cuboid finds itself.
func TestLeafRangeSearch(t *testing.T) {
	s, path, levels := apexGrid(t)
	leaf := len(levels) - 1
	if len(levels[0].cells) != 1 || len(levels[1].cells) != 3 || len(levels[leaf].cells) != 36 {
		t.Fatalf("path cuboids of %d, %d and %d cells, want 1, 3 and 36", len(levels[0].cells), len(levels[1].cells), len(levels[leaf].cells))
	}
	if n := len(cellsBelow(levels, 0, 0, leaf)); n != 36 {
		t.Fatalf("the apex covers %d leaves, want 36", n)
	}
	for k, cell := range levels[1].cells {
		a2 := cellsBelow(levels, 1, k, 2)
		if len(a2) != 3 {
			t.Fatalf("A1 cell %v covers %d A2 cells, want 3", cell.Key, len(a2))
		}
		for _, c := range a2 {
			if up, _ := cube.RollUpKey(s, c.Key, path.Cuboids[1]); up != cell.Key {
				t.Fatalf("A2 cell %v found below %v", c.Key, cell.Key)
			}
		}
		if self := cellsBelow(levels, 1, k, 1); len(self) != 1 || self[0].Key != cell.Key {
			t.Fatalf("A1 cell %v searched in its own cuboid finds %v", cell.Key, self)
		}
	}
}

// TestLeafRangesPartitionMeasure: on the apex grid, the cells the search
// finds in any finer path cuboid are exactly the cells below a path cell,
// and they sum to it.
func TestLeafRangesPartitionMeasure(t *testing.T) {
	s, path, levels := apexGrid(t)
	for i := range levels {
		for j := i; j < len(levels); j++ {
			for k, cell := range levels[i].cells {
				var base, slope float64
				for _, below := range cellsBelow(levels, i, k, j) {
					if up, _ := cube.RollUpKey(s, below.Key, path.Cuboids[i]); up != cell.Key {
						t.Fatalf("cell %v found below %v", below.Key, cell.Key)
					}
					base, slope = base+below.ISB.Base, slope+below.ISB.Slope
				}
				if !almostEq(base, cell.ISB.Base, 1e-9) || !almostEq(slope, cell.ISB.Slope, 1e-9) {
					t.Fatalf("path cuboid %d below %v sums to (%g,%g), want (%g,%g)", j, cell.Key, base, slope, cell.ISB.Base, cell.ISB.Slope)
				}
			}
		}
	}
}

// TestRollUpPath: Step 2 on four tuples along the paper's path
// (A1,C1)→B1→B2→A2→C2. Sorted by path key the leaves (A2,B2,C2) are
// (5,17,3), (6,17,3), (41,17,3), (40,90,20); the first two differ only
// from A2 on, so each path cuboid above A2 has three cells, whose leaf
// ranges start at 0, 2 and 3, the o-layer's cells sum the whole batch, and
// the runs model the path-ordered tree's 20 nodes.
func TestRollUpPath(t *testing.T) {
	s := paperSchema(t)
	path := mustPath(t, cube.NewLattice(s), []int{1, 1, 0, 2})
	inputs := []Input{
		{Members: []int32{5, 17, 3}, Measure: regression.ISB{Te: 9, Base: 1, Slope: 0.5}},
		{Members: []int32{6, 17, 3}, Measure: regression.ISB{Te: 9, Base: 2, Slope: -0.25}},
		{Members: []int32{40, 90, 20}, Measure: regression.ISB{Te: 9, Base: 3, Slope: 1}},
		{Members: []int32{41, 17, 3}, Measure: regression.ISB{Te: 9, Base: 4}},
	}
	levels, nodes, err := rollUpPath(NewWorkspace(s), inputs, path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefTree(s, pathOrder(s, path), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 20 || ref.nodes != 20 {
		t.Fatalf("%d nodes modelled, %d in the reference tree, want 20", nodes, ref.nodes)
	}
	var leaves [][3]int32
	for _, c := range levels[len(levels)-1].cells {
		leaves = append(leaves, [3]int32{c.Key.Member(0), c.Key.Member(1), c.Key.Member(2)})
	}
	if want := [][3]int32{{5, 17, 3}, {6, 17, 3}, {41, 17, 3}, {40, 90, 20}}; !slices.Equal(leaves, want) {
		t.Fatalf("leaves %v, want %v", leaves, want)
	}
	for i, l := range levels {
		want := []int32{0, 2, 3, 4}
		if i >= 3 { // A2 and C2
			want = []int32{0, 1, 2, 3, 4}
		}
		if !slices.Equal(l.starts, want) {
			t.Fatalf("path cuboid %d starts %v, want %v", i, l.starts, want)
		}
	}
	type oCell struct {
		a1, c1      int32
		base, slope float64
	}
	var got []oCell
	var base, slope float64
	for _, c := range levels[0].cells {
		got = append(got, oCell{c.Key.Member(0), c.Key.Member(2), c.ISB.Base, c.ISB.Slope})
		base, slope = base+c.ISB.Base, slope+c.ISB.Slope
	}
	if want := []oCell{{0, 1, 3, 0.25}, {5, 1, 4, 0}, {5, 10, 3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("o-layer cells %v, want %v", got, want)
	}
	if base != 10 || slope != 1.25 {
		t.Fatalf("the o-layer sums to (%g,%g), want (10,1.25)", base, slope)
	}
}

// TestPropagationInvariantsProperty: for random batches on the paper
// schema and path, the leaves are the distinct m-cells, each the sum of
// its tuples; every path cell is the sum of the cells below it in the
// next path cuboid, those ranges tiling that cuboid; and the o-layer sums
// the whole batch.
func TestPropagationInvariantsProperty(t *testing.T) {
	s := paperSchema(t)
	path := mustPath(t, cube.NewLattice(s), []int{1, 1, 0, 2})
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		direct := map[[3]int32]*regression.ISB{}
		var inputs []Input
		var totBase, totSlope float64
		for range 1 + r.Intn(120) {
			m := [3]int32{int32(r.Intn(49)), int32(r.Intn(100)), int32(r.Intn(24))}
			isb := regression.ISB{Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64()}
			inputs = append(inputs, Input{Members: m[:], Measure: isb})
			if direct[m] == nil {
				direct[m] = &regression.ISB{}
			}
			direct[m].Base += isb.Base
			direct[m].Slope += isb.Slope
			totBase, totSlope = totBase+isb.Base, totSlope+isb.Slope
		}
		levels, _, err := rollUpPath(NewWorkspace(s), inputs, path)
		if err != nil {
			return false
		}
		leaves := levels[len(levels)-1].cells
		if len(leaves) != len(direct) {
			return false
		}
		for _, leaf := range leaves {
			want := direct[[3]int32{leaf.Key.Member(0), leaf.Key.Member(1), leaf.Key.Member(2)}]
			if want == nil || !almostEq(leaf.ISB.Base, want.Base, 1e-7) || !almostEq(leaf.ISB.Slope, want.Slope, 1e-7) {
				return false
			}
		}
		for i := range levels[:len(levels)-1] {
			tiled := 0
			for k, cell := range levels[i].cells {
				var base, slope float64
				for _, c := range cellsBelow(levels, i, k, i+1) {
					base, slope = base+c.ISB.Base, slope+c.ISB.Slope
					tiled++
				}
				if !almostEq(base, cell.ISB.Base, 1e-7) || !almostEq(slope, cell.ISB.Slope, 1e-7) {
					return false
				}
			}
			if tiled != len(levels[i+1].cells) {
				return false
			}
		}
		var base, slope float64
		for _, c := range levels[0].cells {
			base, slope = base+c.ISB.Base, slope+c.ISB.Slope
		}
		return almostEq(base, totBase, 1e-7) && almostEq(slope, totSlope, 1e-7)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPopularPathMergesDuplicateTuples: tuples of one m-cell fold into one
// leaf, in input order.
func TestPopularPathMergesDuplicateTuples(t *testing.T) {
	s := paperSchema(t)
	inputs := []Input{
		{Members: []int32{5, 17, 3}, Measure: regression.ISB{Te: 9, Base: 1, Slope: 0.5}},
		{Members: []int32{6, 17, 3}, Measure: regression.ISB{Te: 9, Base: 1, Slope: 1}},
		{Members: []int32{5, 17, 3}, Measure: regression.ISB{Te: 9, Base: 2, Slope: 0.25}},
	}
	res, err := PopularPath(s, inputs, exception.Global(0), cube.NewLattice(s).DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TreeLeaves != 2 {
		t.Fatalf("%d leaves, want 2", res.Stats.TreeLeaves)
	}
	got, ok := res.Exception(cube.NewCellKey(s.MLayer(), 5, 17, 3))
	if want, _ := regression.AggregateStandard(inputs[0].Measure, inputs[2].Measure); !ok || got != want {
		t.Fatalf("merged m-cell %v, want %v", got, want)
	}
}
