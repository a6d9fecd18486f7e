// Package core implements the paper's primary contribution: exception-based
// regression cube computation between the two critical layers (§4.3–4.4).
//
// Two algorithms are provided, exactly the paper's pair:
//
//   - Algorithm 1, m/o H-cubing (MOCubing): aggregate every cuboid between
//     the m-layer and the o-layer, reusing one scratch header table at a
//     time, retaining only exception cells (plus all o-layer cells "for
//     observation").
//   - Algorithm 2, popular-path cubing (PopularPath): materialize only the
//     cuboids along one popular drilling path in the H-tree's non-leaf
//     nodes, then recursively drill from the o-layer into exception cells'
//     children, aggregating each off-path cuboid from the closest computed
//     path cuboid.
//
// Both consume the same m-layer input (one scan of the stream data) and
// report detailed time/space statistics for the paper's Figures 8–10.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/htree"
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
	TreeNodes        int           // H-tree size
	TreeLeaves       int           // distinct m-layer cells
	CuboidsComputed  int           // cuboids whose cells were aggregated
	CellsComputed    int64         // total cells aggregated across cuboids
	CellsRetained    int64         // exception + o-layer (+ path) cells kept
	PeakScratchCells int64         // largest transient header table
	BytesRetained    int64         // estimate of resident bytes at finish
	PeakBytes        int64         // estimate of peak resident bytes
	BuildTime        time.Duration // H-tree construction (stream scan)
	CubeTime         time.Duration // aggregation + exception detection
}

// bytesPerCell estimates the footprint of one retained cell (key+ISB+map
// overhead) for the paper's memory panels.
const bytesPerCell = 96

// sortedCells flattens a retained-cell map into canonical key order
// (cube.CompareKeys) — the stable iteration surface snapshot readers,
// serializers and the supporter index need, since map order changes run to
// run. A unit retains tens of thousands of cells, and a comparison sort
// moves every ~80-byte cell a dozen times; so when the linear codings of
// the lattice's cuboids (cuboidCoder), laid end to end in cuboid order,
// fit one uint64, cells are radix-sorted by that code instead.
func sortedCells(s *cube.Schema, m map[cube.CellKey]regression.ISB) []Cell {
	cells := make([]Cell, 0, len(m))
	for k, isb := range m {
		cells = append(cells, Cell{Key: k, ISB: isb})
	}
	if sorted, ok := radixSortCells(s, cells); ok {
		return sorted
	}
	slices.SortFunc(cells, CompareCells)
	return cells
}

// radixSortCells returns cells in cube.CompareKeys order, or ok=false when
// some cell lies outside the lattice or the lattice's cell space exceeds
// the code range (the caller then sorts by comparison).
func radixSortCells(s *cube.Schema, cells []Cell) (sorted []Cell, ok bool) {
	type coding struct {
		strides [cube.MaxDims]uint64
		base    uint64 // the cuboid's first code: all cells of earlier cuboids sort before it
	}
	cuboids := slices.Clone(cube.NewLattice(s).Cuboids())
	slices.SortFunc(cuboids, func(a, b cube.Cuboid) int {
		return cube.CompareKeys(cube.CellKey{Cuboid: a}, cube.CellKey{Cuboid: b})
	})
	codings := make(map[cube.Cuboid]coding, len(cuboids))
	next := uint64(0)
	for _, c := range cuboids {
		strides, _, total, fits := cuboidCoder(s, c)
		if !fits || next+total < next || next+total > 1<<62 {
			return nil, false
		}
		codings[c] = coding{strides: strides, base: next}
		next += total
	}
	entries := make([]runEntry, len(cells), 2*len(cells))
	for i := range cells {
		cd, inLattice := codings[cells[i].Key.Cuboid]
		if !inLattice {
			return nil, false
		}
		code := cd.base
		for d := range s.Dims {
			code += uint64(cells[i].Key.Members[d]) * cd.strides[d]
		}
		entries[i] = runEntry{code: code, idx: int32(i)}
	}
	entries, _ = radixSortByCode(entries, entries[len(cells):cap(entries)], next-1)
	sorted = make([]Cell, len(cells))
	for j, e := range entries {
		sorted[j] = cells[e.idx]
	}
	return sorted, true
}

// validate checks batch shape and interval uniformity.
func validate(s *cube.Schema, inputs []Input) error {
	if len(inputs) == 0 {
		return fmt.Errorf("%w: empty batch", ErrInput)
	}
	tb, te := inputs[0].Measure.Tb, inputs[0].Measure.Te
	for i, in := range inputs {
		if len(in.Members) != len(s.Dims) {
			return fmt.Errorf("%w: tuple %d has %d members for %d dimensions", ErrInput, i, len(in.Members), len(s.Dims))
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

// buildTree scans the batch once into an H-tree with the given attribute
// order — Step 1 of both algorithms.
func buildTree(s *cube.Schema, attrs []htree.Attribute, inputs []Input) (*htree.HTree, error) {
	tree, err := htree.New(s, attrs)
	if err != nil {
		return nil, err
	}
	for i, in := range inputs {
		if err := tree.Insert(in.Members, in.Measure); err != nil {
			return nil, fmt.Errorf("core: inserting tuple %d: %w", i, err)
		}
	}
	return tree, nil
}

// accumulate merges an ISB into a scratch header table by
// standard-dimension aggregation (bases and slopes add; Theorem 3.2).
func accumulate(scratch map[cube.CellKey]regression.ISB, key cube.CellKey, isb regression.ISB) {
	if cur, ok := scratch[key]; ok {
		cur.Base += isb.Base
		cur.Slope += isb.Slope
		scratch[key] = cur
	} else {
		scratch[key] = isb
	}
}

// SortedCellKeys returns a cell table's keys in cube.CompareKeys order —
// the canonical iteration order wherever retention order feeds later
// aggregation (keeping float results bitwise reproducible) or a wire
// document (keeping equal state equal bytes).
func SortedCellKeys[V any](m map[cube.CellKey]V) []cube.CellKey {
	keys := make([]cube.CellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cube.CompareKeys)
	return keys
}

// runEntry is one rolled-up leaf in the sorted-run aggregator: the target
// cell as a linear code and the index of the source leaf. The stable radix
// sort groups equal cells while preserving leaf order inside each group, so
// the float accumulation order is exactly that of a map header table filled
// in leaf order (moCubingRef, the test reference).
type runEntry struct {
	code uint64
	idx  int32
}

// runScratch is the reusable per-cuboid aggregation state of one MOCubing
// call: allocated once, reused for every cuboid pass ("one local header
// table at a time", without the churn).
type runScratch struct {
	entries []runEntry
	spare   []runEntry      // radix ping-pong buffer
	plan    []cube.Resolver // per-dimension m-level → cuboid-level resolution
	cells   []Cell          // aggregated cells of the current cuboid
}

// cuboidCoder computes the linear coding of a cuboid's cells: the
// mixed-radix encoding of the member tuple by per-dimension cardinality,
// most significant dimension first — an order-embedding of
// cube.CompareKeys restricted to one cuboid. ok is false when the cuboid's
// cell space exceeds the uint64 range (the caller falls back to key
// sorting).
func cuboidCoder(s *cube.Schema, c cube.Cuboid) (strides, cards [cube.MaxDims]uint64, total uint64, ok bool) {
	const limit = uint64(1) << 62
	total = 1
	for d := len(s.Dims) - 1; d >= 0; d-- {
		strides[d] = total
		card := uint64(s.Dims[d].Hierarchy.Cardinality(c.Level(d)))
		cards[d] = card
		if card == 0 || total > limit/card {
			return strides, cards, total, false
		}
		total *= card
	}
	return strides, cards, total, true
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
// the lattice from the H-tree's m-layer cells, one cuboid at a time in a
// reused scratch aggregator, and retains only exception cells in between
// the layers (all cells at the o-layer, which is also returned). It is the
// one-shot form of Workspace.MOCubing.
func MOCubing(s *cube.Schema, inputs []Input, thr exception.Thresholder) (*Result, error) {
	return NewWorkspace(s).MOCubing(inputs, thr)
}

// Workspace is what repeated m/o-cubing runs over one schema can keep
// between runs: the H-tree (node and pointer arenas, header tables, the
// ancestor index built with it), the lattice, the leaf-cell buffer and the
// run aggregator. The online engine cubes one unit after another over the
// same schema; rebuilding all of this per unit was most of what a unit
// allocated. A run's Result shares nothing with the workspace, and results
// are bit for bit those of a fresh MOCubing call. Not safe for concurrent
// use.
type Workspace struct {
	schema    *cube.Schema
	tree      *htree.HTree // built by the first run, Reset by every later one
	lattice   *cube.Lattice
	leafCells []Cell
	scratch   runScratch
	// oCells and exceptions are the last run's retained-cell counts: the
	// next result's maps start at that size instead of growing to it.
	oCells, exceptions int
}

// NewWorkspace returns an empty workspace for cubing over s.
func NewWorkspace(s *cube.Schema) *Workspace { return &Workspace{schema: s} }

// MOCubing is core.MOCubing run in the workspace.
func (w *Workspace) MOCubing(inputs []Input, thr exception.Thresholder) (*Result, error) {
	s := w.schema
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	if w.tree == nil {
		tree, err := htree.New(s, htree.CardinalityOrder(s))
		if err != nil {
			return nil, err
		}
		w.tree, w.lattice = tree, cube.NewLattice(s)
	}
	tree := w.tree
	tree.Reset()
	for i, in := range inputs {
		if err := tree.Insert(in.Members, in.Measure); err != nil {
			return nil, fmt.Errorf("core: inserting tuple %d: %w", i, err)
		}
	}
	build := time.Since(start)

	idx := tree.AncestorIndex() // built once with the tree
	lattice := w.lattice
	res := &Result{
		Schema:     s,
		oLayer:     cellSet{m: make(map[cube.CellKey]regression.ISB, w.oCells)},
		exceptions: cellSet{m: make(map[cube.CellKey]regression.ISB, w.exceptions)},
	}
	st := &res.Stats
	st.Algorithm = "m/o-cubing"
	st.Tuples = len(inputs)
	st.TreeNodes = tree.NodeCount()
	st.TreeLeaves = tree.LeafCount()
	st.BuildTime = build

	cubeStart := time.Now()
	mLayer := s.MLayer()
	oLayer := s.OLayer()
	leaves := tree.Leaves()
	// Pre-extract leaf cells once; every cuboid pass rolls them up.
	leafCells := slices.Grow(w.leafCells[:0], len(leaves))
	for _, leaf := range leaves {
		leafCells = append(leafCells, Cell{Key: tree.CellKeyOf(leaf), ISB: leaf.Measure})
	}
	w.leafCells = leafCells
	scratch := &w.scratch

	treeBytes := tree.BytesEstimate()
	for _, c := range lattice.Cuboids() {
		st.CuboidsComputed++
		if c.Equal(mLayer) {
			// The m-layer is the tree's leaf level: computed during the
			// build, no extra pass needed; its exceptions are still
			// detected and retained (Algorithm 1 computes all exception
			// cells in every required cuboid).
			st.CellsComputed += int64(len(leafCells))
			thrM := thr.Threshold(c)
			isO := c.Equal(oLayer) // degenerate schema with no layers in between
			for _, lc := range leafCells {
				if isO {
					res.oLayer.m[lc.Key] = lc.ISB
				}
				if exception.IsException(lc.ISB, thrM) {
					res.exceptions.m[lc.Key] = lc.ISB
				}
			}
			continue
		}
		if err := scratch.aggregate(s, idx, leafCells, c); err != nil {
			return nil, err
		}
		distinct := int64(len(scratch.cells))
		st.CellsComputed += distinct
		if distinct > st.PeakScratchCells {
			st.PeakScratchCells = distinct
		}
		// The run aggregator's two leaf-proportional entry buffers are
		// scratch too; keep the memory panels honest about them.
		const runEntryBytes = 16
		peak := treeBytes + (distinct+int64(len(res.exceptions.m))+int64(len(res.oLayer.m)))*bytesPerCell +
			int64(cap(scratch.entries)+cap(scratch.spare))*runEntryBytes
		if peak > st.PeakBytes {
			st.PeakBytes = peak
		}
		threshold := thr.Threshold(c)
		isO := c.Equal(oLayer)
		for i := range scratch.cells {
			cell := &scratch.cells[i]
			if isO {
				res.oLayer.m[cell.Key] = cell.ISB
			}
			if exception.IsException(cell.ISB, threshold) {
				res.exceptions.m[cell.Key] = cell.ISB
			}
		}
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = int64(len(res.oLayer.m) + len(res.exceptions.m))
	st.BytesRetained = treeBytes + st.CellsRetained*bytesPerCell
	if st.BytesRetained > st.PeakBytes {
		st.PeakBytes = st.BytesRetained
	}
	w.oCells, w.exceptions = len(res.oLayer.m), len(res.exceptions.m)
	// Bound what is kept to a small multiple of this run's size, so one
	// bursty unit cannot pin its peak footprint (the tree does the same in
	// Reset).
	if bound := 4*len(leafCells) + 1024; cap(leafCells) > bound {
		w.leafCells, w.scratch = nil, runScratch{}
	}
	return res, nil
}

// aggregate rolls every leaf up to cuboid c and sums equal cells into
// sc.cells, reusing sc's buffers. The accumulation order inside each cell
// is leaf order — the operand order of a map header table filled leaf by
// leaf (moCubingRef, the test reference), so results are bitwise equal to
// it; only the bookkeeping differs (append + stable radix sort instead of
// map assignments).
func (sc *runScratch) aggregate(s *cube.Schema, idx *cube.AncestorIndex, leafCells []Cell, c cube.Cuboid) error {
	strides, cards, total, coded := cuboidCoder(s, c)
	sc.cells = sc.cells[:0]
	if !coded {
		return sc.aggregateByKey(s, leafCells, c)
	}

	nd := len(s.Dims)
	sc.entries = sc.entries[:0]
	// Compile the per-dimension resolution once per cuboid; coding a leaf is
	// then one table read or divide per dimension.
	sc.plan = sc.plan[:0]
	mLayer := s.MLayer()
	for d := 0; d < nd; d++ {
		sc.plan = append(sc.plan, idx.Resolver(d, mLayer.Level(d), c.Level(d)))
	}
	for i := range leafCells {
		members := &leafCells[i].Key.Members
		code := uint64(0)
		for d := range sc.plan {
			code += uint64(sc.plan[d].Resolve(members[d])) * strides[d]
		}
		sc.entries = append(sc.entries, runEntry{code: code, idx: int32(i)})
	}
	if cap(sc.spare) < len(sc.entries) {
		sc.spare = make([]runEntry, len(sc.entries))
	}
	sorted, other := radixSortByCode(sc.entries, sc.spare[:len(sc.entries)], total-1)
	sc.entries, sc.spare = sorted, other

	for r := 0; r < len(sorted); {
		first := sorted[r]
		key := cube.CellKey{Cuboid: c}
		for d := 0; d < nd; d++ {
			key.Members[d] = int32(first.code / strides[d] % cards[d])
		}
		cell := Cell{Key: key, ISB: leafCells[first.idx].ISB}
		for r++; r < len(sorted) && sorted[r].code == first.code; r++ {
			isb := &leafCells[sorted[r].idx].ISB
			cell.ISB.Base += isb.Base
			cell.ISB.Slope += isb.Slope
		}
		sc.cells = append(sc.cells, cell)
	}
	return nil
}

// aggregateByKey is the uncoded fallback: cuboids whose cell space
// overflows a uint64 linear code sort rolled cells by key directly
// (stable, preserving leaf order within equal keys).
func (sc *runScratch) aggregateByKey(s *cube.Schema, leafCells []Cell, c cube.Cuboid) error {
	for i := range leafCells {
		key, err := cube.RollUpKey(s, leafCells[i].Key, c)
		if err != nil {
			return err
		}
		sc.cells = append(sc.cells, Cell{Key: key, ISB: leafCells[i].ISB})
	}
	slices.SortStableFunc(sc.cells, CompareCells)
	w := 0
	for r := 1; r < len(sc.cells); r++ {
		if cube.CompareKeys(sc.cells[r].Key, sc.cells[w].Key) == 0 {
			sc.cells[w].ISB.Base += sc.cells[r].ISB.Base
			sc.cells[w].ISB.Slope += sc.cells[r].ISB.Slope
		} else {
			w++
			sc.cells[w] = sc.cells[r]
		}
	}
	if len(sc.cells) > 0 {
		sc.cells = sc.cells[:w+1]
	}
	return nil
}
