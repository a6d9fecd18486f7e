package cube

// This file is the cubing hot path's precomputation layer. Ancestor() walks
// a Hierarchy interface one Parent call per level — fine at the API surface,
// but the cuboid×leaf loop of m/o-cubing and popular-path's path keys
// resolve ancestors millions of times per unit. AncestorIndex
// precomputes every (dimension, from-level, to-level) mapping so those loops
// do one integer division or one slice index per resolution, with results
// identical to Ancestor by construction (the tables are built by the same
// Parent walk, and the divisor fast path is exactly FanoutHierarchy.Parent
// iterated).

// maxDenseTableMembers caps dense table construction: a hierarchy level with
// more members than this (and no divisor fast path) falls back to walking
// Parent, trading speed for not materializing multi-hundred-MB tables.
const maxDenseTableMembers = 1 << 22

// dimIndex resolves ancestors for one dimension. Exactly one strategy is
// active:
//
//   - fanout ≥ 1: ancestor(from→to) = member / fanout^(from−to), the
//     FanoutHierarchy law (one divide, no memory);
//   - tables != nil: tables[from][to] is a dense member→ancestor slice
//     (levels 1 ≤ to < from; to == from is the identity and to == 0 is the
//     single ALL member, neither needs a table);
//   - otherwise: walk h.Parent (oversized non-fanout hierarchy).
type dimIndex struct {
	h      Hierarchy
	levels int
	fanout int64
	// pows[k] = fanout^k, saturated to avoid overflow on deep hierarchies;
	// member/pows[k] is then 0, matching the true ancestor (member counts
	// are bounded by int32, so a saturated power exceeds any member).
	pows   []int64
	tables [][][]int32
}

func newDimIndex(h Hierarchy) dimIndex {
	di := dimIndex{h: h, levels: h.Levels()}
	if fh, ok := h.(*FanoutHierarchy); ok {
		di.fanout = int64(fh.Fanout)
		di.pows = make([]int64, di.levels+1)
		di.pows[0] = 1
		const saturate = int64(1) << 40 // > max int32: division yields 0
		for k := 1; k <= di.levels; k++ {
			if di.pows[k-1] >= saturate/di.fanout {
				di.pows[k] = saturate
			} else {
				di.pows[k] = di.pows[k-1] * di.fanout
			}
		}
		return di
	}
	if h.Cardinality(di.levels) > maxDenseTableMembers {
		return di // Parent-walk fallback
	}
	// tables[from][to]: built coarse-to-fine per from-level by extending the
	// previous level's tables through one Parent call per member — the same
	// walk Ancestor does, so entries are identical by construction.
	di.tables = make([][][]int32, di.levels+1)
	for from := 2; from <= di.levels; from++ {
		card := h.Cardinality(from)
		di.tables[from] = make([][]int32, from)
		for to := from - 1; to >= 1; to-- {
			tab := make([]int32, card)
			if to == from-1 {
				for m := range tab {
					tab[m] = h.Parent(from, int32(m))
				}
			} else {
				finer := di.tables[from][to+1]
				coarser := di.tables[to+1][to] // (to+1)→to, already built
				for m := range tab {
					tab[m] = coarser[finer[m]]
				}
			}
			di.tables[from][to] = tab
		}
	}
	return di
}

// ancestor resolves the level-`to` ancestor of `member` at level `from`.
// Levels must satisfy 0 ≤ to ≤ from ≤ Levels(); member must be in range —
// callers on the hot path have validated both already.
func (di *dimIndex) ancestor(from, to int, member int32) int32 {
	if to == from {
		return member
	}
	if to == 0 {
		return 0
	}
	if di.fanout > 0 {
		return int32(int64(member) / di.pows[from-to])
	}
	if di.tables != nil {
		return di.tables[from][to][member]
	}
	return Ancestor(di.h, from, to, member)
}

// AncestorIndex precomputes ancestor resolution for every dimension of a
// schema. Build one per cubing run (construction is O(levels) per fanout
// dimension and O(levels²·members) per explicitly-enumerated dimension,
// both negligible against a cube pass) and resolve with Ancestor/RollUp in
// the inner loops.
type AncestorIndex struct {
	dims []dimIndex
}

// NewAncestorIndex builds the index for a schema.
func NewAncestorIndex(s *Schema) *AncestorIndex {
	ix := &AncestorIndex{dims: make([]dimIndex, len(s.Dims))}
	for d, dim := range s.Dims {
		ix.dims[d] = newDimIndex(dim.Hierarchy)
	}
	return ix
}

// Ancestor is the indexed equivalent of cube.Ancestor for dimension d:
// it lifts a member at level `from` to the coarser level `to`. Arguments
// must be in range (0 ≤ to ≤ from ≤ Levels, member < Cardinality(from));
// hot-path callers have validated them already.
func (ix *AncestorIndex) Ancestor(d, from, to int, member int32) int32 {
	return ix.dims[d].ancestor(from, to, member)
}

// RollUp lifts a cell key to the coarser cuboid `to` — RollUpKey without
// the domination re-validation and the per-level interface walk. The
// caller guarantees to.DominatedBy(k.Cuboid) (hoist the check out of the
// leaf loop; cubing checks once per cuboid pass).
func (ix *AncestorIndex) RollUp(k CellKey, to Cuboid) CellKey {
	out := CellKey{Cuboid: to}
	for d := 0; d < int(k.Cuboid.n); d++ {
		out.Members[d] = ix.dims[d].ancestor(int(k.Cuboid.levels[d]), int(to.levels[d]), k.Members[d])
	}
	return out
}

// Resolver is one dimension's (from-level → to-level) resolution compiled
// out of the index: exactly one of table / divide / walk, so a loop over
// many members of one cuboid pays plain arithmetic per member instead of
// re-deciding the strategy. The zero Resolver is the ALL level (every
// member resolves to 0).
type Resolver struct {
	tab  []int32   // table mode: tab[member]
	div  int64     // divide mode when > 0: member / div (1 = identity)
	walk *dimIndex // fallback mode: per-member Parent walk from → to
	from int
	to   int
}

// Resolver compiles dimension d's (from → to) resolution. Levels must
// satisfy 0 ≤ to ≤ from ≤ Levels().
func (ix *AncestorIndex) Resolver(d, from, to int) Resolver {
	di := &ix.dims[d]
	switch {
	case to == 0:
		return Resolver{}
	case to == from:
		return Resolver{div: 1}
	case di.fanout > 0:
		return Resolver{div: di.pows[from-to]}
	case di.tables != nil:
		return Resolver{tab: di.tables[from][to]}
	default:
		return Resolver{walk: di, from: from, to: to}
	}
}

// Resolve lifts one member; it must be in range for the from-level.
func (r *Resolver) Resolve(member int32) int32 {
	switch {
	case r.tab != nil:
		return r.tab[member]
	case r.div > 0:
		return int32(int64(member) / r.div)
	case r.walk != nil:
		return Ancestor(r.walk.h, r.from, r.to, member)
	}
	return 0
}

// RollUpTo rolls cells of any cuboid up to one fixed coarser cuboid,
// compiling each source cuboid's per-dimension Resolvers the first time a
// cell of that cuboid is seen — the bulk form of RollUp for scans over a
// whole retained-cell set (a lattice has few cuboids and many cells). Not
// safe for concurrent use.
type RollUpTo struct {
	ix    *AncestorIndex
	to    Cuboid
	plans map[Cuboid]*[MaxDims]Resolver // nil entry: cuboid does not dominate `to`
	last  Cuboid
	plan  *[MaxDims]Resolver // plans[last]
}

// RollUpTo starts a bulk roll-up to cuboid `to`.
func (ix *AncestorIndex) RollUpTo(to Cuboid) *RollUpTo {
	return &RollUpTo{ix: ix, to: to, plans: make(map[Cuboid]*[MaxDims]Resolver)}
}

// Key lifts k to the target cuboid; ok is false when k's cuboid does not
// dominate it (k cannot be a descendant of any target cell). Consecutive
// keys of one cuboid — any CompareKeys-ordered scan — skip the plan lookup.
func (r *RollUpTo) Key(k CellKey) (up CellKey, ok bool) {
	if k.Cuboid != r.last {
		plan, seen := r.plans[k.Cuboid]
		if !seen {
			if r.to.DominatedBy(k.Cuboid) {
				plan = new([MaxDims]Resolver)
				for d := 0; d < int(r.to.n); d++ {
					plan[d] = r.ix.Resolver(d, int(k.Cuboid.levels[d]), int(r.to.levels[d]))
				}
			}
			r.plans[k.Cuboid] = plan
		}
		r.last, r.plan = k.Cuboid, plan
	}
	if r.plan == nil {
		return CellKey{}, false
	}
	up.Cuboid = r.to
	for d := 0; d < int(r.to.n); d++ {
		up.Members[d] = r.plan[d].Resolve(k.Members[d])
	}
	return up, true
}
