package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// refTree is the paper's H-tree (§4.4, Figure 7) built the naive way, for
// the tests: a prefix tree over dimension-level attributes with one child
// map per node, each leaf folding its m-cell's tuples in input order. The
// cubing kernels model this tree instead of building it; the tests hold
// their node counts, leaf orders and byte estimates to it.
type refTree struct {
	attrs  []pathAttr
	root   *refNode
	nodes  int        // the root included
	leaves []*refNode // in order of first occurrence
}

type refNode struct {
	kids map[int32]*refNode
	leaf bool
	cell Cell // a leaf's m-cell and folded measure
}

// newRefTree inserts every input into a fresh tree over attrs, resolving
// ancestors through the Hierarchy interface.
func newRefTree(s *cube.Schema, attrs []pathAttr, inputs []Input) (*refTree, error) {
	t := &refTree{attrs: attrs, root: &refNode{kids: map[int32]*refNode{}}, nodes: 1}
	for i, in := range inputs {
		n := t.root
		for _, a := range attrs {
			dim := s.Dims[a.dim]
			m := cube.Ancestor(dim.Hierarchy, dim.MLevel, a.level, in.Members[a.dim])
			if n.kids[m] == nil {
				n.kids[m] = &refNode{kids: map[int32]*refNode{}}
				t.nodes++
			}
			n = n.kids[m]
		}
		if !n.leaf {
			n.leaf, n.cell = true, Cell{Key: cube.NewCellKey(s.MLayer(), in.Members...), ISB: in.Measure}
			t.leaves = append(t.leaves, n)
			continue
		}
		var err error
		if n.cell.ISB, err = regression.AggregateStandard(n.cell.ISB, in.Measure); err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return t, nil
}

// bytes is the tree's footprint in the memory panels' model.
func (t *refTree) bytes() int64 { return int64(t.nodes) * bytesPerNode }

// cuboidAtDepth is the cuboid the nodes at depth k hold: per dimension,
// the finest of its levels among the first k attributes.
func (t *refTree) cuboidAtDepth(s *cube.Schema, k int) cube.Cuboid {
	c := cube.MustCuboid(make([]int, len(s.Dims))...)
	for _, a := range t.attrs[:k] {
		c = c.WithLevel(a.dim, max(c.Level(a.dim), a.level))
	}
	return c
}

// cardinalityOrder is Algorithm 1's attribute order (Example 5): each
// dimension's levels from its o-level (at least 1) to its m-level, by
// ascending cardinality, ties by level, then dimension.
func cardinalityOrder(s *cube.Schema) []pathAttr {
	var attrs []pathAttr
	for d, dim := range s.Dims {
		for l := max(dim.OLevel, 1); l <= dim.MLevel; l++ {
			attrs = append(attrs, pathAttr{dim: d, level: l})
		}
	}
	card := func(a pathAttr) int { return s.Dims[a.dim].Hierarchy.Cardinality(a.level) }
	slices.SortStableFunc(attrs, func(a, b pathAttr) int {
		return cmp.Or(cmp.Compare(card(a), card(b)), cmp.Compare(a.level, b.level), cmp.Compare(a.dim, b.dim))
	})
	return attrs
}

// pathOrder is Algorithm 2's attribute order for a valid path: the
// o-layer's levels below ALL, then every level each step adds.
func pathOrder(s *cube.Schema, p cube.Path) []pathAttr {
	var attrs []pathAttr
	prev := cube.MustCuboid(make([]int, len(s.Dims))...)
	for _, c := range p.Cuboids {
		for d := range s.Dims {
			for l := prev.Level(d) + 1; l <= c.Level(d); l++ {
				attrs = append(attrs, pathAttr{dim: d, level: l})
			}
		}
		prev = c
	}
	return attrs
}

// popularPathRef is Algorithm 2 summed on the path-ordered reference tree:
// a node sums its children in member order, any other cell the cells of
// its covering path cuboid beneath it in path order, and an off-path
// cuboid keeps only the exceptions under an exception parent. It returns
// the o-layer and exception cells in canonical order; PopularPath must
// match them bit for bit.
func popularPathRef(s *cube.Schema, inputs []Input, thr exception.Thresholder, p cube.Path) (oLayer, excs []Cell, err error) {
	tree, err := newRefTree(s, pathOrder(s, p), inputs)
	if err != nil {
		return nil, nil, err
	}
	// depths[k] lists the cells of the tree's depth k in path order.
	depths := make([][]Cell, len(tree.attrs)+1)
	var walk func(n *refNode, k int) Cell
	walk = func(n *refNode, k int) Cell {
		cell := n.cell
		for i, m := range slices.Sorted(maps.Keys(n.kids)) {
			child := walk(n.kids[m], k+1)
			if i == 0 {
				cell = Cell{Key: rollUp(s, child.Key, tree.cuboidAtDepth(s, k)), ISB: child.ISB}
				continue
			}
			cell.ISB.Base += child.ISB.Base
			cell.ISB.Slope += child.ISB.Slope
		}
		depths[k] = append(depths[k], cell)
		return cell
	}
	walk(tree.root, 0)
	oAttrs := len(tree.attrs) - (len(p.Cuboids) - 1)
	lattice := cube.NewLattice(s)
	kept := make(map[cube.CellKey]bool)
	for _, c := range lattice.Cuboids() {
		cells := make(map[cube.CellKey]regression.ISB)
		for _, cell := range depths[oAttrs+p.Depth(p.Covering(c))] {
			accumulate(cells, rollUp(s, cell.Key, c), cell.ISB)
		}
		for _, cell := range cellList(cells) {
			if c == s.OLayer() {
				oLayer = append(oLayer, cell)
			}
			drilled := p.OnPath(c)
			for _, q := range lattice.Parents(c) {
				drilled = drilled || kept[rollUp(s, cell.Key, q)]
			}
			if drilled && exception.IsException(cell.ISB, thr.Threshold(c)) {
				kept[cell.Key] = true
				excs = append(excs, cell)
			}
		}
	}
	slices.SortFunc(excs, CompareCells)
	return oLayer, excs, nil
}

// rollUp is cube.RollUpKey for a key whose cuboid dominates c.
func rollUp(s *cube.Schema, k cube.CellKey, c cube.Cuboid) cube.CellKey {
	key, err := cube.RollUpKey(s, k, c)
	if err != nil {
		panic(err)
	}
	return key
}

// cellList lists a cell table in canonical order.
func cellList(m map[cube.CellKey]regression.ISB) []Cell {
	cells := make([]Cell, 0, len(m))
	for k, isb := range m {
		cells = append(cells, Cell{Key: k, ISB: isb})
	}
	slices.SortFunc(cells, CompareCells)
	return cells
}
