package core

import (
	"fmt"
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
	// PathCells holds the materialized popular-path cuboid cells
	// (popular-path algorithm only; nil for m/o-cubing and merged results).
	PathCells map[cube.Cuboid]map[cube.CellKey]regression.ISB
	Stats     Stats

	// oLayer holds every o-layer cell ("all cells are retained for
	// observation"), exceptions every retained exception cell from the
	// o-layer down to (and including) the m-layer, both in canonical key
	// order. Both are empty in a merged result, which holds its parts
	// instead, in partition order, and owners: each o-cell with the part
	// that holds it, in key order.
	oLayer, exceptions []Cell
	parts              []*Result
	owners             []owner
}

// owner names the part of a merged result that holds an o-cell.
type owner struct {
	key  cube.CellKey
	part int
}

// lookup binary-searches a canonical cell list for cell k's regression.
func lookup(cells []Cell, k cube.CellKey) (regression.ISB, bool) {
	i, ok := slices.BinarySearchFunc(cells, k, func(c Cell, k cube.CellKey) int { return cube.CompareKeys(c.Key, k) })
	if !ok {
		return regression.ISB{}, false
	}
	return cells[i].ISB, true
}

// NumOCells counts the o-layer cells.
func (r *Result) NumOCells() int {
	return r.count(func(p *Result) []Cell { return p.oLayer })
}

// NumExceptions counts the retained exception cells.
func (r *Result) NumExceptions() int {
	return r.count(func(p *Result) []Cell { return p.exceptions })
}

func (r *Result) count(of func(*Result) []Cell) int {
	n := len(of(r))
	for _, p := range r.parts {
		n += len(of(p))
	}
	return n
}

// OCell returns the o-layer cell k's regression, if the result holds it.
func (r *Result) OCell(k cube.CellKey) (regression.ISB, bool) {
	p := r.partOf(k)
	if p == nil {
		return regression.ISB{}, false
	}
	return lookup(p.oLayer, k)
}

// Exception returns the retained exception cell k's regression, if the
// result holds it.
func (r *Result) Exception(k cube.CellKey) (regression.ISB, bool) {
	if r.parts == nil {
		return lookup(r.exceptions, k)
	}
	o, err := cube.RollUpKey(r.Schema, k, r.Schema.OLayer())
	if err != nil {
		return regression.ISB{}, false
	}
	if p := r.partOf(o); p != nil {
		return lookup(p.exceptions, k)
	}
	return regression.ISB{}, false
}

// partOf returns the part that holds o-cell o: r itself unless r is
// merged, nil when no part does.
func (r *Result) partOf(o cube.CellKey) *Result {
	if r.parts == nil {
		return r
	}
	i, ok := slices.BinarySearchFunc(r.owners, o, func(w owner, k cube.CellKey) int { return cube.CompareKeys(w.key, k) })
	if !ok {
		return nil
	}
	return r.parts[r.owners[i].part]
}

// OCells returns every o-layer cell in canonical key order. The list may
// be the result's own: do not modify it.
func (r *Result) OCells() []Cell {
	return r.canonical(func(p *Result) []Cell { return p.oLayer })
}

// ExceptionCells returns every retained exception cell in canonical key
// order. The list may be the result's own: do not modify it.
func (r *Result) ExceptionCells() []Cell {
	return r.canonical(func(p *Result) []Cell { return p.exceptions })
}

// canonical k-way merges the parts' canonical lists; a part's o-cells and
// the exceptions under them are its own, so no two lists share a cell.
func (r *Result) canonical(of func(*Result) []Cell) []Cell {
	if r.parts == nil {
		return of(r)
	}
	lists := make([][]Cell, len(r.parts))
	for i, p := range r.parts {
		lists[i] = of(p)
	}
	return MergeParts(lists, CompareCells)
}

// AllOCells yields every o-layer cell part by part, with no merge, for
// readers that impose their own order: range over the method value.
func (r *Result) AllOCells(yield func(Cell) bool) {
	r.all(func(p *Result) []Cell { return p.oLayer }, yield)
}

// AllExceptions yields every retained exception cell part by part, for
// readers that impose their own order.
func (r *Result) AllExceptions(yield func(Cell) bool) {
	r.all(func(p *Result) []Cell { return p.exceptions }, yield)
}

func (r *Result) all(of func(*Result) []Cell, yield func(Cell) bool) {
	parts := r.parts
	if parts == nil {
		parts = []*Result{r}
	}
	for _, p := range parts {
		for _, c := range of(p) {
			if !yield(c) {
				return
			}
		}
	}
}

// ExceptionsAt returns the retained exception cells of one cuboid, in
// canonical key order.
func (r *Result) ExceptionsAt(c cube.Cuboid) []Cell {
	var out []Cell
	for _, cell := range r.ExceptionCells() {
		if cell.Key.Cuboid == c {
			out = append(out, cell)
		}
	}
	return out
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
	for i, c := range oCells {
		switch {
		case !inSchema(s, c.Key):
			return nil, fmt.Errorf("%w: cell %v is not in the schema", ErrInput, c.Key)
		case c.Key.Cuboid != oLayer:
			return nil, fmt.Errorf("%w: o-layer cell %s is off the o-layer", ErrInput, c.Key.Describe(s))
		case i > 0 && CompareCells(oCells[i-1], c) >= 0:
			return nil, fmt.Errorf("%w: o-layer cell %s out of order or repeated", ErrInput, c.Key.Describe(s))
		}
	}
	up := cube.NewAncestorIndex(s).RollUpTo(oLayer)
	var found cube.CellKey // the last o-cell an exception rolled up to: neighbours share it
	for i, c := range exceptions {
		switch {
		case !inSchema(s, c.Key):
			return nil, fmt.Errorf("%w: cell %v is not in the schema", ErrInput, c.Key)
		case !oLayer.DominatedBy(c.Key.Cuboid) || !c.Key.Cuboid.DominatedBy(mLayer):
			return nil, fmt.Errorf("%w: exception cell %s is outside the critical layers", ErrInput, c.Key.Describe(s))
		case i > 0 && CompareCells(exceptions[i-1], c) >= 0:
			return nil, fmt.Errorf("%w: exception cell %s out of order or repeated", ErrInput, c.Key.Describe(s))
		}
		o, _ := up.Key(c.Key) // the cell's cuboid dominates the o-layer: cannot fail
		if o == found {
			continue
		}
		if _, ok := lookup(oCells, o); !ok {
			return nil, fmt.Errorf("%w: exception cell %s is under no o-layer cell", ErrInput, c.Key.Describe(s))
		}
		found = o
	}
	return &Result{Schema: s, oLayer: oCells, exceptions: exceptions, Stats: st}, nil
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
// yields nil, and a sole non-empty part is returned as is. No cell is
// touched: counts sum the parts', a lookup goes to the one part holding
// the cell's o-cell, ordered reads k-way merge the parts' canonical lists,
// and stats fold through mergeStats. The o-cell → part index is all that
// is built, and building it refuses parts that share an o-cell — one
// node's snapshot twice, say; since each part's exceptions lie under its
// own o-cells, parts that share none share no cell.
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
	res.owners = make([]owner, 0, res.NumOCells())
	for i, p := range flat {
		for c := range p.AllOCells {
			res.owners = append(res.owners, owner{key: c.Key, part: i})
		}
		mergeStats(&res.Stats, &p.Stats, i == 0)
	}
	slices.SortFunc(res.owners, func(a, b owner) int { return cube.CompareKeys(a.key, b.key) })
	for i := 1; i < len(res.owners); i++ {
		if k := res.owners[i].key; cube.CompareKeys(k, res.owners[i-1].key) == 0 {
			return nil, fmt.Errorf("%w: parts share cell %s", ErrInput, k.Describe(s))
		}
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

// MergeSorted k-way-merges lists that are each sorted by cmp onto dst,
// consuming the lists; equal elements keep list order. A linear scan for
// the least head suits the handful of shards or nodes there ever are.
func MergeSorted[T any](dst []T, lists [][]T, cmp func(a, b T) int) []T {
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || cmp(l[0], lists[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// MergeParts is MergeSorted for the immutable lists of a unit's parts —
// cells, alerts, frames — into one: nil when every list is empty, a sole
// non-empty list as is, otherwise a fresh list.
func MergeParts[T any](lists [][]T, cmp func(a, b T) int) []T {
	var sole []T
	n, nonEmpty := 0, 0
	for _, l := range lists {
		if len(l) > 0 {
			n += len(l)
			nonEmpty++
			sole = l
		}
	}
	if nonEmpty <= 1 {
		return sole
	}
	return MergeSorted(make([]T, 0, n), lists, cmp)
}
