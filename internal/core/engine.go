// Package core implements the paper's primary contribution: exception-based
// regression cube computation between the two critical layers (§4.3–4.4).
//
// Two algorithms are provided, exactly the paper's pair:
//
//   - Algorithm 1, m/o H-cubing (MOCubing): aggregate every cuboid between
//     the m-layer and the o-layer from the H-tree's leaves, reusing one
//     scratch header table at a time, retaining only exception cells (plus
//     all o-layer cells "for observation"). The tree is modelled, not
//     built: its leaves are the batch's distinct m-cells, and each pass
//     writes its retained cells already in canonical order.
//   - Algorithm 2, popular-path cubing (PopularPath): materialize only the
//     cuboids along one popular drilling path — the H-tree's non-leaf
//     nodes, modelled as runs over the leaves sorted in path order — then
//     recursively drill from the o-layer into exception cells' children,
//     aggregating each off-path cuboid from the closest computed path
//     cuboid.
//
// Both consume the same m-layer input (one scan of the stream data) and
// report detailed time/space statistics for the paper's Figures 8–10.
// DeltaCubing, the "current quarter vs. the previous one" cube (§4.3),
// cubes each of two adjacent windows with Algorithm 1's pass. That pass,
// runScratch.aggregate, is the one routine that groups and sums a
// cuboid's cells; all three algorithms and the leaf fold run it.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// ErrInput is returned for malformed engine input.
var ErrInput = errors.New("core: invalid input")

// Input is one m-layer tuple: the member per dimension at its m-level and
// the tuple's regression measure. All measures in a batch must share one
// time interval (the engine cubes a single tilt-frame granularity at a
// time; §4.5 drives one batch per completed unit).
type Input struct {
	Members []int32
	Measure regression.ISB
}

// Cell is a retained cell: its identity and regression measure.
type Cell struct {
	Key cube.CellKey
	ISB regression.ISB
}

// CompareCells orders cells by key (cube.CompareKeys) — the canonical
// order of every sorted cell list in the system.
func CompareCells(a, b Cell) int { return cube.CompareKeys(a.Key, b.Key) }

// Stats reports the cost measures the paper's evaluation uses.
type Stats struct {
	Algorithm        string
	Tuples           int           // m-layer tuples consumed
	TreeNodes        int           // size of the H-tree the algorithm models
	TreeLeaves       int           // distinct m-layer cells
	CuboidsComputed  int           // cuboids whose cells were aggregated
	CellsComputed    int64         // total cells aggregated across cuboids
	CellsRetained    int64         // exception + o-layer (+ path) cells kept
	PeakScratchCells int64         // largest transient header table
	BytesRetained    int64         // estimate of resident bytes at finish
	PeakBytes        int64         // estimate of peak resident bytes
	BuildTime        time.Duration // leaf fold (stream scan), plus the path roll-up
	CubeTime         time.Duration // aggregation + exception detection
}

// bytesPerCell estimates the footprint of one retained cell for the
// paper's memory panels: an 80-byte Cell in a result's list, with the
// headroom the figure has always carried, so the panels stay comparable
// across versions.
const bytesPerCell = 96

// bytesPerNode is the per-node footprint estimate of a pointer H-tree
// (member, depth, parent, child slice, measure, header link, and a slot in
// its parent's child slice): both algorithms model their tree instead of
// building it, but the memory panels still count it.
const bytesPerNode = 120

// validate checks batch shape, interval uniformity and that every member
// lies in its dimension's m-layer.
func validate(s *cube.Schema, inputs []Input) error {
	if len(inputs) == 0 {
		return fmt.Errorf("%w: empty batch", ErrInput)
	}
	var cards [cube.MaxDims]int
	for d, dim := range s.Dims {
		cards[d] = dim.Hierarchy.Cardinality(dim.MLevel)
	}
	tb, te := inputs[0].Measure.Tb, inputs[0].Measure.Te
	for i, in := range inputs {
		if len(in.Members) != len(s.Dims) {
			return fmt.Errorf("%w: tuple %d has %d members for %d dimensions", ErrInput, i, len(in.Members), len(s.Dims))
		}
		for d, m := range in.Members {
			if m < 0 || int(m) >= cards[d] {
				return fmt.Errorf("%w: tuple %d member %d of dimension %s outside [0,%d)", ErrInput, i, m, s.Dims[d].Name, cards[d])
			}
		}
		if in.Measure.Tb != tb || in.Measure.Te != te {
			return fmt.Errorf("%w: tuple %d interval [%d,%d] differs from [%d,%d]",
				ErrInput, i, in.Measure.Tb, in.Measure.Te, tb, te)
		}
		if !in.Measure.IsFinite() {
			return fmt.Errorf("%w: tuple %d has non-finite measure", ErrInput, i)
		}
	}
	return nil
}

// runEntry is one source cell in the cuboid aggregator: its target cell as
// a linear code and its index in the source list. The stable sort groups
// equal cells while preserving source order inside each group, so the float
// accumulation order is exactly that of a map header table filled in source
// order (moCubingRef, the test reference).
type runEntry struct {
	code uint64
	idx  int32
}

// runScratch is the reusable state of the cuboid aggregator: allocated
// once, reused for every cuboid pass ("one local header table at a time",
// without the churn).
type runScratch struct {
	entries []runEntry
	spare   []runEntry                  // radix ping-pong buffer
	plan    [cube.MaxDims]cube.Resolver // per-dimension source level → cuboid-level resolution
	cells   []Cell                      // aggregated cells of the current cuboid
	// runs[k:k+2] delimits the entries cell k sums; the last is len(entries).
	runs []int32
}

// cuboidCoder computes the linear coding of a cuboid's cells: the
// mixed-radix encoding of the member tuple by per-dimension cardinality,
// most significant dimension first — an order-embedding of
// cube.CompareKeys restricted to one cuboid. ok is false when the cuboid's
// cell space exceeds the uint64 range (the caller falls back to key
// sorting).
func cuboidCoder(s *cube.Schema, c cube.Cuboid) (strides [cube.MaxDims]uint64, total uint64, ok bool) {
	const limit = uint64(1) << 62
	total = 1
	for d := len(s.Dims) - 1; d >= 0; d-- {
		strides[d] = total
		card := uint64(s.Dims[d].Hierarchy.Cardinality(c.Level(d)))
		if card == 0 || total > limit/card {
			return strides, total, false
		}
		total *= card
	}
	return strides, total, true
}

// radixSortByCode stable-sorts entries by code with an LSB radix pass per
// used byte, ping-ponging between entries and spare (equal length). It
// returns (sorted, other). Stability is what carries the leaf order into
// each run. Passes whose byte is constant across all entries are skipped.
func radixSortByCode(entries, spare []runEntry, maxCode uint64) (sorted, other []runEntry) {
	if len(entries) < 2 {
		return entries, spare
	}
	var counts [256]int
	for shift := uint(0); maxCode>>shift != 0; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range entries {
			counts[(entries[i].code>>shift)&0xff]++
		}
		if counts[(entries[0].code>>shift)&0xff] == len(entries) {
			continue // constant byte: nothing to move
		}
		sum := 0
		for i := range counts {
			n := counts[i]
			counts[i] = sum
			sum += n
		}
		for i := range entries {
			b := (entries[i].code >> shift) & 0xff
			spare[counts[b]] = entries[i]
			counts[b]++
		}
		entries, spare = spare, entries
	}
	return entries, spare
}

// MOCubing runs Algorithm 1 (m/o H-cubing). It aggregates every cuboid of
// the lattice from the m-layer cells, one cuboid at a time in a reused
// scratch aggregator, and retains only exception cells in between the
// layers (all cells at the o-layer, which is also returned). It is the
// one-shot form of Workspace.MOCubing.
func MOCubing(s *cube.Schema, inputs []Input, thr exception.Thresholder) (*Result, error) {
	return NewWorkspace(s).MOCubing(inputs, thr)
}

// Workspace is what repeated m/o-cubing runs over one schema can keep
// between runs: the lattice with its canonical order and tree model, the
// ancestor index, and the leaf, exception and run-aggregator buffers. The online engine cubes one unit
// after another over the same schema; rebuilding all of this per unit was
// most of what a unit allocated. A run's Result shares nothing with the
// workspace, and results are bit for bit those of a fresh MOCubing call.
// Not safe for concurrent use.
//
// Algorithm 1's H-tree is modelled, not built: its leaves are the inputs'
// distinct m-cells in the tree's leaf order (foldLeaves), and its node
// count is counted from the cuboids its depths hold (treeDepths).
type Workspace struct {
	schema  *cube.Schema
	lattice *cube.Lattice
	idx     *cube.AncestorIndex
	canon   []int // lattice positions in canonical cuboid order
	// depths[i] counts the tree depths whose cuboid is lattice cuboid i;
	// outside lists the depths' cuboids outside the lattice.
	depths  []int
	outside []cube.Cuboid
	// bounds[i:i+2] delimits lattice cuboid i's run in exceptions, the
	// last run's exception cells in pass order.
	bounds     []int
	exceptions []Cell
	leafCells  []Cell
	head       []int32 // foldLeaves: each tuple's first occurrence
	scratch    runScratch
}

// NewWorkspace returns an empty workspace for cubing over s.
func NewWorkspace(s *cube.Schema) *Workspace {
	lattice := cube.NewLattice(s)
	cuboids := lattice.Cuboids()
	w := &Workspace{
		schema: s, lattice: lattice, idx: cube.NewAncestorIndex(s),
		canon: make([]int, len(cuboids)), depths: make([]int, len(cuboids)), bounds: make([]int, len(cuboids)+1),
	}
	for i := range w.canon {
		w.canon[i] = i
	}
	slices.SortFunc(w.canon, func(a, b int) int {
		return cube.CompareKeys(cube.CellKey{Cuboid: cuboids[a]}, cube.CellKey{Cuboid: cuboids[b]})
	})
	for _, c := range treeDepths(s) {
		if i := slices.Index(cuboids, c); i >= 0 {
			w.depths[i]++
		} else {
			w.outside = append(w.outside, c)
		}
	}
	return w
}

// treeDepths returns the cuboids the levels of Algorithm 1's H-tree hold
// (§4.4, Example 5). The tree's attributes are each dimension's levels
// from its o-level (at least 1) to its m-level, in ascending cardinality
// (ties: level, then dimension), and depth k holds one node per distinct
// cell of the prefix cuboid that takes, per dimension, the finest level
// among the first k attributes.
func treeDepths(s *cube.Schema) []cube.Cuboid {
	type attr struct{ card, level, dim int }
	var attrs []attr
	for d, dim := range s.Dims {
		for l := max(dim.OLevel, 1); l <= dim.MLevel; l++ {
			attrs = append(attrs, attr{card: dim.Hierarchy.Cardinality(l), level: l, dim: d})
		}
	}
	slices.SortFunc(attrs, func(a, b attr) int {
		return cmp.Or(cmp.Compare(a.card, b.card), cmp.Compare(a.level, b.level), cmp.Compare(a.dim, b.dim))
	})
	prefix := cube.MustCuboid(make([]int, len(s.Dims))...)
	depths := make([]cube.Cuboid, len(attrs))
	for k, a := range attrs {
		prefix = prefix.WithLevel(a.dim, max(prefix.Level(a.dim), a.level))
		depths[k] = prefix
	}
	return depths
}

// MOCubing is core.MOCubing run in the workspace.
func (w *Workspace) MOCubing(inputs []Input, thr exception.Thresholder) (*Result, error) {
	s := w.schema
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	leafCells, mCells := w.foldLeaves(inputs, true)
	res := &Result{Schema: s}
	st := &res.Stats
	st.Algorithm = "m/o-cubing"
	st.Tuples = len(inputs)
	st.TreeLeaves = len(leafCells)
	st.BuildTime = time.Since(start)

	cubeStart := time.Now()
	mLayer, oLayer := s.MLayer(), s.OLayer()
	scratch := &w.scratch
	excs := w.exceptions[:0]
	nodes := 1     // the tree's root
	var peak int64 // the largest footprint a pass reached, less the tree's
	for i, c := range w.lattice.Cuboids() {
		st.CuboidsComputed++
		// The m-layer is the leaf level: no pass needed. Its exceptions are
		// still retained (Algorithm 1 computes all exception cells in every
		// required cuboid).
		cells := mCells
		if c != mLayer {
			scratch.aggregate(s, w.idx, leafCells, mLayer, c)
			cells = scratch.cells
			distinct := int64(len(cells))
			st.PeakScratchCells = max(st.PeakScratchCells, distinct)
			// The run aggregator's two leaf-proportional entry buffers are
			// scratch too; keep the memory panels honest about them.
			const runEntryBytes = 16
			peak = max(peak, (distinct+int64(len(excs)+len(res.oLayer)))*bytesPerCell+
				int64(cap(scratch.entries)+cap(scratch.spare))*runEntryBytes)
		}
		st.CellsComputed += int64(len(cells))
		nodes += w.depths[i] * len(cells)
		if c == oLayer {
			res.oLayer = slices.Clone(cells) // one cuboid's cells: canonical as they stand
		}
		threshold := thr.Threshold(c)
		for _, cell := range cells {
			if exception.IsException(cell.ISB, threshold) {
				excs = append(excs, cell)
			}
		}
		w.bounds[i+1] = len(excs)
	}
	// Each pass's exceptions are canonical within its cuboid, so laid out
	// in canonical cuboid order they are canonical throughout.
	res.exceptions = make([]Cell, 0, len(excs))
	for _, i := range w.canon {
		res.exceptions = append(res.exceptions, excs[w.bounds[i]:w.bounds[i+1]]...)
	}
	// The tree's levels outside the lattice are rolled up from the leaves
	// on the aggregator's entry buffers, handed back as they were: the next
	// run's passes start from, and count, what the passes alone left.
	entries, spare := scratch.entries, scratch.spare
	for _, c := range w.outside {
		scratch.aggregate(s, w.idx, leafCells, mLayer, c)
		nodes += len(scratch.cells)
	}
	scratch.entries, scratch.spare = entries, spare
	st.CubeTime = time.Since(cubeStart)
	st.TreeNodes = nodes
	treeBytes := int64(nodes) * bytesPerNode
	st.CellsRetained = int64(len(res.oLayer) + len(res.exceptions))
	st.BytesRetained = treeBytes + st.CellsRetained*bytesPerCell
	st.PeakBytes = treeBytes + max(peak, st.CellsRetained*bytesPerCell)
	// Bound what is kept to a small multiple of this run's size, so one
	// bursty unit cannot pin its peak footprint.
	w.exceptions = excs
	if cap(excs) > 4*len(excs)+1024 {
		w.exceptions = nil
	}
	if bound := 4*len(leafCells) + 1024; cap(leafCells) > bound {
		w.leafCells, w.head, w.scratch = nil, nil, runScratch{}
	}
	// The supporters index is not the cube's: no stat counts it.
	res.groupByOCell(w.idx) // every cell aggregates into one o-cell: cannot fail
	return res, nil
}

// foldLeaves returns the m-layer cells of inputs in two orders. leaves is
// the leaf order of Algorithm 1's H-tree: each distinct cell where it
// first occurs, its duplicates folded into it in input order, so every sum
// a pass makes has the tree's operand order. canonical, which m/o-cubing
// alone reads (wantCanonical), is the same cells in canonical order.
// Strictly ascending inputs — the stream's — are both as given; otherwise
// the cuboid aggregator finds the duplicates, and canonical is nil unless
// wanted.
func (w *Workspace) foldLeaves(inputs []Input, wantCanonical bool) (leaves, canonical []Cell) {
	ascending := CheckRun(inputs, func(a, b Input) int { return slices.Compare(a.Members, b.Members) }) < 0
	var cells []Cell
	if ascending {
		cells = slices.Grow(w.leafCells[:0], len(inputs))
	} else {
		cells = make([]Cell, 0, len(inputs))
	}
	mLayer := w.schema.MLayer()
	for _, in := range inputs {
		cell := Cell{Key: cube.CellKey{Cuboid: mLayer}, ISB: in.Measure}
		copy(cell.Key.Members[:], in.Members)
		cells = append(cells, cell)
	}
	if ascending {
		w.leafCells = cells
		return cells, cells
	}
	// Each run of the aggregator is one distinct cell, its tuples in input
	// order: the first is where the tree puts the leaf, and the rest fold
	// into it in that order.
	sc := &w.scratch
	sc.aggregate(w.schema, w.idx, cells, mLayer, mLayer)
	head := slices.Grow(w.head[:0], len(cells))[:len(cells)]
	if wantCanonical {
		canonical = make([]Cell, 0, len(sc.cells))
	}
	for k := range sc.cells {
		run := sc.entries[sc.runs[k]:sc.runs[k+1]]
		h := run[0].idx
		for _, e := range run {
			if head[e.idx] = h; e.idx != h {
				cells[h].ISB, _ = regression.AggregateStandard(cells[h].ISB, cells[e.idx].ISB)
			}
		}
		if wantCanonical {
			canonical = append(canonical, cells[h])
		}
	}
	leaves = slices.Grow(w.leafCells[:0], len(sc.cells))
	for i, h := range head {
		if h == int32(i) {
			leaves = append(leaves, cells[i])
		}
	}
	w.leafCells, w.head = leaves, head
	return leaves, canonical
}

// aggregate is the package's one cuboid aggregator. It rolls src, cells
// of the cuboid from, which dominates c, up to c and sums equal cells into
// sc.cells in canonical order; cell k sums the src cells that
// sc.entries[sc.runs[k]:sc.runs[k+1]] index, in src order. m/o- and delta
// cubing pass the tree's leaves, popular-path the covering path cells and
// foldLeaves the batch's tuples. Summing in src order is the operand order
// of a map header table filled cell by cell (moCubingRef, the test
// reference), so results are bitwise equal to it; only the bookkeeping
// differs (append + stable sort instead of map assignments).
func (sc *runScratch) aggregate(s *cube.Schema, idx *cube.AncestorIndex, src []Cell, from, c cube.Cuboid) {
	strides, total, coded := cuboidCoder(s, c)
	// Entries grow as they always have: the memory panels count their
	// capacity. Cells and runs number at most the sources.
	sc.entries = sc.entries[:0]
	sc.cells = slices.Grow(sc.cells[:0], len(src))
	sc.runs = slices.Grow(sc.runs[:0], len(src)+1)
	// Compile the per-dimension resolution once per cuboid; rolling a cell
	// up is then one table read or divide per dimension.
	nd := len(s.Dims)
	for d := 0; d < nd; d++ {
		sc.plan[d] = idx.Resolver(d, from.Level(d), c.Level(d))
	}
	// keyOf is an entry's cell of c: decoded from its code, or rolled up
	// when c's cell space overflows the code.
	keyOf := func(e runEntry) cube.CellKey {
		key, rem := cube.CellKey{Cuboid: c}, e.code
		for d := 0; d < nd; d++ {
			if coded {
				key.Members[d], rem = int32(rem/strides[d]), rem%strides[d]
			} else {
				key.Members[d] = sc.plan[d].Resolve(src[e.idx].Key.Members[d])
			}
		}
		return key
	}
	for i := range src {
		e := runEntry{idx: int32(i)}
		if coded {
			members := &src[i].Key.Members
			for d := 0; d < nd; d++ {
				e.code += uint64(sc.plan[d].Resolve(members[d])) * strides[d]
			}
		}
		sc.entries = append(sc.entries, e)
	}
	if coded {
		if cap(sc.spare) < len(sc.entries) {
			sc.spare = make([]runEntry, len(sc.entries))
		}
		sc.entries, sc.spare = radixSortByCode(sc.entries, sc.spare[:len(sc.entries)], total-1)
	} else {
		// c's cell space overflows the code, and every code is 0: sort
		// and group by rolled key instead.
		slices.SortStableFunc(sc.entries, func(a, b runEntry) int { return cube.CompareKeys(keyOf(a), keyOf(b)) })
	}

	sorted := sc.entries
	for r := 0; r < len(sorted); {
		first := sorted[r]
		sc.runs = append(sc.runs, int32(r))
		cell := Cell{Key: keyOf(first), ISB: src[first.idx].ISB}
		for r++; r < len(sorted) && sorted[r].code == first.code && (coded || keyOf(sorted[r]) == cell.Key); r++ {
			isb := &src[sorted[r].idx].ISB
			cell.ISB.Base += isb.Base
			cell.ISB.Slope += isb.Slope
		}
		sc.cells = append(sc.cells, cell)
	}
	sc.runs = append(sc.runs, int32(len(sorted)))
}
