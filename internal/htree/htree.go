// Package htree implements the hyper-linked H-tree structure of Han et al.
// (SIGMOD'01) as revised by the paper (§4.4, Figure 7) for regression
// cubing: a prefix tree over dimension-level attributes whose leaves hold
// the m-layer regression measures (ISBs) and whose header tables side-link
// all nodes sharing an attribute value.
//
// Two attribute orders are supported, matching the paper's two algorithms:
//
//   - cardinality-ascending order (Example 5: ⟨A1,B1,C1,C2,A2,B2⟩) for
//     m/o-cubing, maximizing prefix sharing — built here for the oracles
//     the tests hold core.MOCubing to, which models this tree instead of
//     building it;
//   - popular-path order (⟨(A1,C1)→B1→B2→A2→C2⟩) for popular-path cubing,
//     making every tree depth a cuboid of the path so roll-ups along the
//     path materialize for free in the non-leaf nodes.
//
// The tree is built once per cubing call, for the batch popular-path
// algorithm and the tests' oracles; no tree is reused. Nodes come from slab
// arenas (one allocation per thousands of nodes), children live in
// member-sorted slices carved from a shared pointer arena (binary-search
// lookup, order-preserving traversal with no per-visit sort), header tables
// side-link nodes through an intrusive chain (O(1) zero-allocation append),
// and per-attribute member resolution goes through a cube.AncestorIndex
// instead of walking the Hierarchy interface level by level.
package htree

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cube"
	"repro/internal/regression"
)

// ErrInput is returned for malformed tuples or configurations.
var ErrInput = errors.New("htree: invalid input")

// Attribute names one dimension-level pair, a column of the expanded tuple
// ("each tuple, expanded to include ancestor values of each dimension").
type Attribute struct {
	Dim   int // dimension index in the schema
	Level int // hierarchy level (≥ 1; level 0/ALL never materializes)
}

// CardinalityOrder returns the attributes between each dimension's o-level
// and m-level ordered by ascending cardinality (ties broken by level then
// dimension), the paper's ordering for compactness: "this ordering makes
// the tree compact since there are likely more sharings at higher level
// nodes".
func CardinalityOrder(s *cube.Schema) []Attribute {
	var attrs []Attribute
	for d, dim := range s.Dims {
		lo := dim.OLevel
		if lo < 1 {
			lo = 1
		}
		for l := lo; l <= dim.MLevel; l++ {
			attrs = append(attrs, Attribute{Dim: d, Level: l})
		}
	}
	sort.SliceStable(attrs, func(i, j int) bool {
		ci := s.Dims[attrs[i].Dim].Hierarchy.Cardinality(attrs[i].Level)
		cj := s.Dims[attrs[j].Dim].Hierarchy.Cardinality(attrs[j].Level)
		if ci != cj {
			return ci < cj
		}
		if attrs[i].Level != attrs[j].Level {
			return attrs[i].Level < attrs[j].Level
		}
		return attrs[i].Dim < attrs[j].Dim
	})
	return attrs
}

// PathOrder returns the attributes in popular-path order: first the
// o-layer's non-ALL attributes (the paper's "(A1,C1)" step), then one
// attribute per drilling step. Tree depth oAttrs+i then corresponds
// exactly to path cuboid i.
func PathOrder(s *cube.Schema, p cube.Path) []Attribute {
	var attrs []Attribute
	o := s.OLayer()
	for d := range s.Dims {
		for l := 1; l <= o.Level(d); l++ {
			attrs = append(attrs, Attribute{Dim: d, Level: l})
		}
	}
	for i := 1; i < len(p.Cuboids); i++ {
		prev, cur := p.Cuboids[i-1], p.Cuboids[i]
		for d := 0; d < cur.NumDims(); d++ {
			for l := prev.Level(d) + 1; l <= cur.Level(d); l++ {
				attrs = append(attrs, Attribute{Dim: d, Level: l})
			}
		}
	}
	return attrs
}

// Node is one H-tree node. Depth 0 is the root (no attribute); a node at
// depth k carries a member of attribute k−1. Leaves hold the m-layer
// measures; after PropagateUp, interior nodes hold the standard-dimension
// aggregation of their subtree (the regression points Algorithm 2 stores
// "in the nonleaf nodes").
type Node struct {
	Member     int32
	Depth      int
	Parent     *Node
	Children   []*Node // member-ascending; shared storage, do not modify
	Measure    regression.ISB
	HasMeasure bool
	Tuples     int64 // number of m-layer tuples under this node
	// hlink chains nodes of one (attribute, member) header slot in
	// creation order — the paper's side-links, without a slice per slot.
	hlink *Node
}

// headerTable is one attribute's header: the distinct members present
// (sorted) with each member's side-linked node chain.
type headerTable struct {
	members []int32 // sorted ascending
	heads   []*Node // first chain node per member, parallel to members
	tails   []*Node // last chain node per member (O(1) append)
	nodes   int     // total nodes at this attribute's depth
}

// HTree is the hyper-linked tree plus its per-attribute header tables.
type HTree struct {
	schema  *cube.Schema
	attrs   []Attribute
	idx     *cube.AncestorIndex
	mLevels []int // per dimension: the m-level (ancestor resolution source)
	cards   []int // per dimension: cardinality at the m-level
	root    *Node
	headers []headerTable
	nodes   int
	leaves  []*Node
	// nodeChunks slab-allocate nodes: one allocation per chunk instead of
	// one per node. Chunks start small and double, so a small tree is not
	// mostly slab slack. nodeChunk indexes the chunk being filled.
	nodeChunks [][]Node
	nodeChunk  int
	// ptrChunks carve children slices the same way: child-slice growth
	// takes from here instead of the heap.
	ptrChunks [][]*Node
	ptrChunk  int
}

const (
	minNodeChunk = 64
	maxNodeChunk = 1024
	minPtrChunk  = 256
	maxPtrChunk  = 4096
)

// New builds an empty H-tree over the given attribute order. Every
// dimension's m-level attribute must appear so that leaves identify
// m-layer cells.
func New(s *cube.Schema, attrs []Attribute) (*HTree, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrInput)
	}
	seen := make(map[Attribute]bool, len(attrs))
	finest := make([]int, len(s.Dims))
	for _, a := range attrs {
		if a.Dim < 0 || a.Dim >= len(s.Dims) {
			return nil, fmt.Errorf("%w: attribute dimension %d", ErrInput, a.Dim)
		}
		if a.Level < 1 || a.Level > s.Dims[a.Dim].MLevel {
			return nil, fmt.Errorf("%w: attribute level %d for dimension %s", ErrInput, a.Level, s.Dims[a.Dim].Name)
		}
		if seen[a] {
			return nil, fmt.Errorf("%w: duplicate attribute (%d,L%d)", ErrInput, a.Dim, a.Level)
		}
		seen[a] = true
		if a.Level > finest[a.Dim] {
			finest[a.Dim] = a.Level
		}
	}
	for d, dim := range s.Dims {
		if finest[d] != dim.MLevel {
			return nil, fmt.Errorf("%w: dimension %s m-level L%d missing from attributes", ErrInput, dim.Name, dim.MLevel)
		}
	}
	t := &HTree{
		schema:  s,
		attrs:   attrs,
		idx:     cube.NewAncestorIndex(s),
		mLevels: make([]int, len(s.Dims)),
		cards:   make([]int, len(s.Dims)),
		headers: make([]headerTable, len(attrs)),
	}
	for d, dim := range s.Dims {
		t.mLevels[d] = dim.MLevel
		t.cards[d] = dim.Hierarchy.Cardinality(dim.MLevel)
	}
	// Pre-size header tables to the attribute's cardinality (capped: sparse
	// data never fills huge levels).
	for k, a := range attrs {
		card := s.Dims[a.Dim].Hierarchy.Cardinality(a.Level)
		if card > 1024 {
			card = 1024
		}
		t.headers[k].members = make([]int32, 0, card)
		t.headers[k].heads = make([]*Node, 0, card)
		t.headers[k].tails = make([]*Node, 0, card)
	}
	t.nodes = 1
	t.root = t.newNode()
	return t, nil
}

// chunkSize is the capacity of the n-th chunk of an arena: min doubling to
// max.
func chunkSize(n, min, max int) int {
	for size := min; ; size *= 2 {
		if n == 0 || size >= max {
			return size
		}
		n--
	}
}

// newNode slab-allocates one zeroed node.
func (t *HTree) newNode() *Node {
	for {
		if t.nodeChunk == len(t.nodeChunks) {
			t.nodeChunks = append(t.nodeChunks, make([]Node, 0, chunkSize(t.nodeChunk, minNodeChunk, maxNodeChunk)))
		}
		c := &t.nodeChunks[t.nodeChunk]
		if len(*c) < cap(*c) {
			*c = (*c)[:len(*c)+1]
			n := &(*c)[len(*c)-1]
			*n = Node{}
			return n
		}
		t.nodeChunk++
	}
}

// growChildren returns a copy of old with room for at least one more child,
// carved from the pointer arena.
func (t *HTree) growChildren(old []*Node) []*Node {
	newCap := 4
	if cap(old) > 0 {
		newCap = cap(old) * 2
	}
	for {
		if t.ptrChunk == len(t.ptrChunks) {
			size := max(newCap, chunkSize(t.ptrChunk, minPtrChunk, maxPtrChunk))
			t.ptrChunks = append(t.ptrChunks, make([]*Node, 0, size))
		}
		c := &t.ptrChunks[t.ptrChunk]
		if base := len(*c); base+newCap <= cap(*c) {
			*c = (*c)[:base+newCap]
			s := (*c)[base : base+len(old) : base+newCap]
			copy(s, old)
			return s
		}
		t.ptrChunk++
	}
}

// AncestorIndex returns the precomputed ancestor tables the tree resolves
// attributes with, so callers cubing over the tree reuse them instead of
// rebuilding the index per pass.
func (t *HTree) AncestorIndex() *cube.AncestorIndex { return t.idx }

// Root returns the root node.
func (t *HTree) Root() *Node { return t.root }

// NodeCount returns the number of nodes including the root.
func (t *HTree) NodeCount() int { return t.nodes }

// LeafCount returns the number of leaves (distinct m-layer cells).
func (t *HTree) LeafCount() int { return len(t.leaves) }

// Leaves returns the leaf nodes in insertion-discovery order. The slice is
// shared; do not modify.
func (t *HTree) Leaves() []*Node { return t.leaves }

// findChild binary-searches a node's member-sorted children.
func findChild(kids []*Node, val int32) (int, bool) {
	lo, hi := 0, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kids[mid].Member < val {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(kids) && kids[lo].Member == val
}

// Insert adds one m-layer tuple: members[d] is the member of dimension d
// at its m-level, and isb the tuple's regression measure. Tuples mapping
// to the same m-layer cell are merged with standard-dimension aggregation
// ("performing aggregation in the corresponding leaf nodes").
func (t *HTree) Insert(members []int32, isb regression.ISB) error {
	if len(members) != len(t.schema.Dims) {
		return fmt.Errorf("%w: %d members for %d dimensions", ErrInput, len(members), len(t.schema.Dims))
	}
	for d, m := range members {
		if m < 0 || int(m) >= t.cards[d] {
			return fmt.Errorf("%w: member %d of dimension %s outside [0,%d)", ErrInput, m, t.schema.Dims[d].Name, t.cards[d])
		}
	}
	cur := t.root
	for k := range t.attrs {
		a := &t.attrs[k]
		val := t.idx.Ancestor(a.Dim, t.mLevels[a.Dim], a.Level, members[a.Dim])
		pos, found := findChild(cur.Children, val)
		var child *Node
		if found {
			child = cur.Children[pos]
		} else {
			child = t.newNode()
			child.Member = val
			child.Depth = k + 1
			child.Parent = cur
			if len(cur.Children) == cap(cur.Children) {
				cur.Children = t.growChildren(cur.Children)
			}
			cur.Children = cur.Children[:len(cur.Children)+1]
			copy(cur.Children[pos+1:], cur.Children[pos:])
			cur.Children[pos] = child
			t.headers[k].add(val, child)
			t.nodes++
			if k == len(t.attrs)-1 {
				t.leaves = append(t.leaves, child)
			}
		}
		child.Tuples++
		cur = child
	}
	if cur.HasMeasure {
		merged, err := regression.AggregateStandard(cur.Measure, isb)
		if err != nil {
			return fmt.Errorf("htree: merging tuple into leaf: %w", err)
		}
		cur.Measure = merged
	} else {
		cur.Measure = isb
		cur.HasMeasure = true
	}
	return nil
}

// add links a freshly created node into the header's chain for val.
func (h *headerTable) add(val int32, n *Node) {
	h.nodes++
	lo, found := slices.BinarySearch(h.members, val)
	if found {
		h.tails[lo].hlink = n
		h.tails[lo] = n
		return
	}
	h.members = append(h.members, 0)
	copy(h.members[lo+1:], h.members[lo:])
	h.members[lo] = val
	h.heads = append(h.heads, nil)
	copy(h.heads[lo+1:], h.heads[lo:])
	h.heads[lo] = n
	h.tails = append(h.tails, nil)
	copy(h.tails[lo+1:], h.tails[lo:])
	h.tails[lo] = n
}

// PropagateUp computes the measure of every interior node as the
// standard-dimension aggregation of its children (post-order), giving the
// roll-ups along the tree's prefix cuboids — Algorithm 2 Step 2. Children
// are stored member-sorted, so the float accumulation order is canonical
// and results are bitwise reproducible (see DESIGN.md §6.3).
func (t *HTree) PropagateUp() error {
	return t.propagate(t.root)
}

func (t *HTree) propagate(n *Node) error {
	if len(n.Children) == 0 {
		if !n.HasMeasure && n != t.root {
			return fmt.Errorf("%w: leaf at depth %d without measure", ErrInput, n.Depth)
		}
		return nil
	}
	// Inline Theorem 3.2 accumulation: bases and slopes add over children
	// sharing one interval (this runs once per node).
	var agg regression.ISB
	first := true
	for _, c := range n.Children {
		if err := t.propagate(c); err != nil {
			return err
		}
		if first {
			agg = c.Measure
			first = false
			continue
		}
		if c.Measure.Tb != agg.Tb || c.Measure.Te != agg.Te {
			return fmt.Errorf("htree: propagating at depth %d: %w: child interval [%d,%d] vs [%d,%d]",
				n.Depth, regression.ErrMismatch, c.Measure.Tb, c.Measure.Te, agg.Tb, agg.Te)
		}
		agg.Base += c.Measure.Base
		agg.Slope += c.Measure.Slope
	}
	n.Measure = agg
	n.HasMeasure = true
	return nil
}

// WalkAtDepth visits every descendant of n at exactly the given tree depth
// (n itself when already there), children in member order. Popular-path
// drilling uses this to enumerate the covering-cuboid cells below one
// exception cell — "the cells to be computed are related only to the
// exception cells".
func (n *Node) WalkAtDepth(depth int, fn func(*Node)) {
	if n.Depth == depth {
		fn(n)
		return
	}
	if n.Depth > depth {
		return
	}
	for _, c := range n.Children {
		c.WalkAtDepth(depth, fn)
	}
}

// NodesAtDepth returns every node at depth k (1-based; k ≤ len(attrs)),
// ordered by member and, within a member, by creation order — a canonical
// order so downstream aggregation is reproducible. The header tables keep
// members sorted, so this is a single pre-sized chain walk.
func (t *HTree) NodesAtDepth(k int) []*Node {
	if k < 1 || k > len(t.attrs) {
		return nil
	}
	h := &t.headers[k-1]
	if h.nodes == 0 {
		return nil
	}
	out := make([]*Node, 0, h.nodes)
	for _, head := range h.heads {
		for n := head; n != nil; n = n.hlink {
			out = append(out, n)
		}
	}
	return out
}

// CuboidAtDepth returns the cuboid materialized by nodes at depth k: each
// dimension sits at the finest of its attribute levels among the first k
// attributes (0/ALL when none appeared yet). For a path-ordered tree,
// depth oAttrs+i yields exactly path cuboid i.
func (t *HTree) CuboidAtDepth(k int) cube.Cuboid {
	var levels [cube.MaxDims]int
	for i := 0; i < k && i < len(t.attrs); i++ {
		a := t.attrs[i]
		if a.Level > levels[a.Dim] {
			levels[a.Dim] = a.Level
		}
	}
	c, err := cube.NewCuboid(levels[:len(t.schema.Dims)]...)
	if err != nil {
		panic(fmt.Sprintf("htree: CuboidAtDepth: %v", err)) // schema bounds validated in New
	}
	return c
}

// CellKeyOf returns the cell identified by a node: the cuboid of its depth
// with the members collected along its root path (the finest member seen
// per dimension).
func (t *HTree) CellKeyOf(n *Node) cube.CellKey {
	c := t.CuboidAtDepth(n.Depth)
	var members [cube.MaxDims]int32
	var levels [cube.MaxDims]int
	for cur := n; cur != nil && cur.Depth > 0; cur = cur.Parent {
		a := t.attrs[cur.Depth-1]
		if a.Level > levels[a.Dim] {
			levels[a.Dim] = a.Level
			members[a.Dim] = cur.Member
		}
	}
	k := cube.CellKey{Cuboid: c}
	k.Members = members
	return k
}

// BytesEstimate returns a size estimate of the tree for the paper's
// memory-usage panels.
func (t *HTree) BytesEstimate() int64 {
	// Per node: the Node struct itself (member+padding 8, depth 8, parent 8,
	// children slice header 24, ISB 32, hasMeasure+padding 8, tuples 8,
	// hlink 8 ≈ 104 bytes), one *Node child slot in the parent's slice (8),
	// and the arena's power-of-two growth slack on child slices (amortized
	// ≤ 1 extra slot). Header chains ride inside the nodes; the per-member
	// header slots (member + head + tail) are amortized into the constant.
	const bytesPerNode = 120
	return int64(t.nodes) * bytesPerNode
}
