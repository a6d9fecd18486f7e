package core

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/cube"
	"repro/internal/regression"
)

// Result is the outcome of one cubing run, or of several over disjoint
// partitions of one unit's cells (Merge). Its retained cells are read
// through accessors — counts, lookups and canonical lists — which answer
// alike for both forms.
type Result struct {
	Schema *cube.Schema
	Stats  Stats

	// oLayer holds every o-layer cell ("all cells are retained for
	// observation"), exceptions every retained exception cell from the
	// o-layer down to (and including) the m-layer, both in canonical key
	// order. A merged result holds its parts instead, in partition order,
	// and of its own lists only oLayer: the parts' o-layers merged.
	oLayer, exceptions []Cell
	parts              []*Result
	// supporters groups a part's exceptions by the o-cell each rolls up
	// to, o-layer exceptions left out: the exceptions under oLayer[i] are
	// at indices supporters[groups[i]:groups[i+1]], in canonical order.
	// Built once with the lists (groupByOCell), never written after.
	groups, supporters []int32
}

// NumOCells counts the o-layer cells.
func (r *Result) NumOCells() int { return len(r.oLayer) }

// NumExceptions counts the retained exception cells.
func (r *Result) NumExceptions() int {
	n := len(r.exceptions)
	for _, p := range r.parts {
		n += len(p.exceptions)
	}
	return n
}

// OCell returns the o-layer cell k's regression, if the result — which
// may be nil — holds it.
func (r *Result) OCell(k cube.CellKey) (regression.ISB, bool) {
	if r == nil {
		return regression.ISB{}, false
	}
	return lookup(r.oLayer, k)
}

// Exception returns the retained exception cell k's regression, if the
// result holds it: a merged result asks its parts in turn, which share no
// cell.
func (r *Result) Exception(k cube.CellKey) (regression.ISB, bool) {
	isb, ok := lookup(r.exceptions, k)
	for _, p := range r.parts {
		if !ok {
			isb, ok = lookup(p.exceptions, k)
		}
	}
	return isb, ok
}

// lookup binary-searches a canonical cell list for cell k's regression.
func lookup(cells []Cell, k cube.CellKey) (regression.ISB, bool) {
	i, ok := slices.BinarySearchFunc(cells, Cell{Key: k}, CompareCells)
	if !ok {
		return regression.ISB{}, false
	}
	return cells[i].ISB, true
}

// OCells returns every o-layer cell in canonical key order. The list is
// the result's own: do not modify it.
func (r *Result) OCells() []Cell { return r.oLayer }

// ExceptionCells returns every retained exception cell in canonical key
// order, a merged result's k-way merged from its parts' lists, which share
// no cell. The list may be the result's own: do not modify it.
func (r *Result) ExceptionCells() []Cell {
	if r.parts == nil {
		return r.exceptions
	}
	runs := make([][]Cell, len(r.parts))
	for i, p := range r.parts {
		runs[i] = p.exceptions
	}
	cells, _ := MergeRuns(nil, runs, CompareCells)
	return cells
}

// AllExceptions yields every retained exception cell part by part, with
// no merge, for readers that impose their own order: range over the
// method value.
func (r *Result) AllExceptions(yield func(Cell) bool) {
	parts := r.parts
	if parts == nil {
		parts = []*Result{r}
	}
	for _, p := range parts {
		for _, c := range p.exceptions {
			if !yield(c) {
				return
			}
		}
	}
}

// Supporters yields the retained exception cells that roll up to o-layer
// cell o — the "exception supporters" an analyst drills into from it
// (§4.3), o itself excluded — in canonical key order, read off the index
// the result was built with: range over the returned sequence. A merged
// result asks the part that holds o. A cell that is not one of the
// result's o-cells has none.
func (r *Result) Supporters(o cube.CellKey) iter.Seq[Cell] {
	return func(yield func(Cell) bool) {
		p, group := r.group(o)
		for _, j := range group {
			if !yield(p.exceptions[j]) {
				return
			}
		}
	}
}

// NumSupporters counts what Supporters(o) yields.
func (r *Result) NumSupporters(o cube.CellKey) int {
	_, group := r.group(o)
	return len(group)
}

// group returns the part that holds o-cell o and the indices of o's
// supporters in that part's exceptions.
func (r *Result) group(o cube.CellKey) (*Result, []int32) {
	parts := r.parts
	if parts == nil {
		parts = []*Result{r}
	}
	for _, p := range parts {
		if i, ok := slices.BinarySearchFunc(p.oLayer, Cell{Key: o}, CompareCells); ok {
			return p, p.supporters[p.groups[i]:p.groups[i+1]]
		}
	}
	return nil, nil
}

// groupByOCell builds the part's supporters index from its two lists: it
// rolls every exception up to its o-cell — neighbours share one, or most
// often take the next — and a counting sort over the canonical exception
// list, stable, groups them with every group in canonical order. It
// returns the index of the first exception under none of the o-cells, or
// -1. The exceptions must lie between the critical layers.
func (r *Result) groupByOCell(idx *cube.AncestorIndex) int {
	oLayer := r.Schema.OLayer()
	up := idx.RollUpTo(oLayer)
	owner := make([]int32, len(r.exceptions)) // the o-cell each exception supports, or -1
	// groups[i+2] counts oLayer[i]'s supporters, then the prefix sums make
	// groups[i+1] the start of its run, and the placement its end.
	groups := make([]int32, len(r.oLayer)+2)
	next := 0 // one past the last exception's o-cell
	for j, c := range r.exceptions {
		o, _ := up.Key(c.Key) // the cell's cuboid dominates the o-layer: cannot fail
		if next == 0 || r.oLayer[next-1].Key != o {
			i, ok := next, next < len(r.oLayer) && r.oLayer[next].Key == o
			if !ok {
				i, ok = slices.BinarySearchFunc(r.oLayer, Cell{Key: o}, CompareCells)
			}
			if !ok {
				return j
			}
			next = i + 1
		}
		owner[j] = -1
		if c.Key.Cuboid != oLayer {
			owner[j] = int32(next - 1)
			groups[next+1]++
		}
	}
	for i := 2; i < len(groups); i++ {
		groups[i] += groups[i-1]
	}
	supporters := make([]int32, groups[len(groups)-1])
	for j, i := range owner {
		if i >= 0 {
			supporters[groups[i+1]] = int32(j)
			groups[i+1]++
		}
	}
	r.groups, r.supporters = groups[:len(r.oLayer)+1], supporters
	return -1
}

// NewResult returns the result of one part over cell lists in canonical
// key order — a decoded or persisted document's, which it keeps. oCells
// must lie on the o-layer and exceptions between the critical layers,
// each under one of oCells: every part's exceptions then live under its
// own o-cells, which is what lets Merge refuse overlapping parts by their
// o-cells alone. A list that breaks this, or is out of order or repeats a
// cell, is ErrInput.
func NewResult(s *cube.Schema, oCells, exceptions []Cell, st Stats) (*Result, error) {
	oLayer, mLayer := s.OLayer(), s.MLayer()
	for _, c := range oCells {
		switch {
		case !inSchema(s, c.Key):
			return nil, fmt.Errorf("%w: cell %v is not in the schema", ErrInput, c.Key)
		case c.Key.Cuboid != oLayer:
			return nil, fmt.Errorf("%w: o-layer cell %s is off the o-layer", ErrInput, c.Key.Describe(s))
		}
	}
	if i := CheckRun(oCells, CompareCells); i >= 0 {
		return nil, fmt.Errorf("%w: o-layer cell %s out of order or repeated", ErrInput, oCells[i].Key.Describe(s))
	}
	for _, c := range exceptions {
		switch {
		case !inSchema(s, c.Key):
			return nil, fmt.Errorf("%w: cell %v is not in the schema", ErrInput, c.Key)
		case !oLayer.DominatedBy(c.Key.Cuboid) || !c.Key.Cuboid.DominatedBy(mLayer):
			return nil, fmt.Errorf("%w: exception cell %s is outside the critical layers", ErrInput, c.Key.Describe(s))
		}
	}
	res := &Result{Schema: s, oLayer: oCells, exceptions: exceptions, Stats: st}
	if j := res.groupByOCell(cube.NewAncestorIndex(s)); j >= 0 {
		return nil, fmt.Errorf("%w: exception cell %s is under no o-layer cell", ErrInput, exceptions[j].Key.Describe(s))
	}
	if i := CheckRun(exceptions, CompareCells); i >= 0 {
		return nil, fmt.Errorf("%w: exception cell %s out of order or repeated", ErrInput, exceptions[i].Key.Describe(s))
	}
	return res, nil
}

// inSchema reports whether k names a member of every dimension at a level
// of its hierarchy.
func inSchema(s *cube.Schema, k cube.CellKey) bool {
	if k.Cuboid.NumDims() != len(s.Dims) {
		return false
	}
	for d, dim := range s.Dims {
		l := k.Cuboid.Level(d)
		if l > dim.Hierarchy.Levels() || k.Members[d] < 0 || int(k.Members[d]) >= dim.Hierarchy.Cardinality(l) {
			return false
		}
	}
	return true
}

// Merge combines the results of one unit cubed over disjoint partitions of
// its cells — a node's shards, a cluster's nodes — into one result that
// holds them as its parts, in the order given (a merged part's own parts
// in its place). nil entries are partitions that closed empty: all-nil
// yields nil, and a sole non-empty part is returned as is. Only the
// o-layer is built, the parts' o-layer runs merged, and the merge refuses
// parts that share an o-cell — one node's snapshot twice, say; since each
// part's exceptions lie under its own o-cells, parts that share none share
// no cell. No exception cell is touched: their count sums the parts', a
// lookup asks each part in turn, the canonical list k-way merges the
// parts' lists, and stats fold through mergeStats.
func Merge(s *cube.Schema, parts []*Result) (*Result, error) {
	var flat []*Result
	for _, p := range parts {
		switch {
		case p == nil:
		case p.parts != nil:
			flat = append(flat, p.parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return nil, nil
	case 1:
		return flat[0], nil
	}
	res := &Result{Schema: s, parts: flat}
	runs := make([][]Cell, len(flat))
	for i, p := range flat {
		runs[i] = p.oLayer
		mergeStats(&res.Stats, &p.Stats, i == 0)
	}
	var repeat int
	if res.oLayer, repeat = MergeRuns(nil, runs, CompareCells); repeat >= 0 {
		return nil, fmt.Errorf("%w: parts share cell %s", ErrInput, res.oLayer[repeat].Key.Describe(s))
	}
	return res, nil
}

// mergeStats folds one part's cube statistics into the merged result.
// Additive counters sum — including the peak estimates, since concurrent
// shards can peak simultaneously and the sum is the safe whole-process
// bound. Wall-clock phases take the maximum (shards run in parallel), and
// per-cuboid counts too, since every shard walks the same lattice.
func mergeStats(dst *Stats, src *Stats, first bool) {
	if first {
		*dst = *src
		return
	}
	dst.Tuples += src.Tuples
	dst.TreeNodes += src.TreeNodes
	dst.TreeLeaves += src.TreeLeaves
	dst.CellsComputed += src.CellsComputed
	dst.CellsRetained += src.CellsRetained
	dst.BytesRetained += src.BytesRetained
	dst.PeakScratchCells += src.PeakScratchCells
	dst.PeakBytes += src.PeakBytes
	if src.CuboidsComputed > dst.CuboidsComputed {
		dst.CuboidsComputed = src.CuboidsComputed
	}
	if src.BuildTime > dst.BuildTime {
		dst.BuildTime = src.BuildTime
	}
	if src.CubeTime > dst.CubeTime {
		dst.CubeTime = src.CubeTime
	}
}
