// Package query provides the analyst-side navigation over cubing results:
// ranked exception lists, drill-down from an o-layer cell to its
// "exception supporters" (§4.3), slicing by dimension members, and
// per-cuboid summaries. It operates purely on retained cells — the same
// information the paper's framework keeps in memory.
package query

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cube"
)

// ErrCell is returned for cell coordinates that do not name a valid cell
// between the schema's critical layers.
var ErrCell = errors.New("query: invalid cell")

// MakeCellKey validates externally supplied cell coordinates — one level
// and one member per dimension, as a serving layer receives them — against
// the schema and assembles the CellKey. Levels must lie between the
// dimension's o- and m-levels (the retained band) and members must be
// within the level's cardinality.
func MakeCellKey(s *cube.Schema, levels []int, members []int32) (cube.CellKey, error) {
	if len(levels) != len(s.Dims) || len(members) != len(s.Dims) {
		return cube.CellKey{}, fmt.Errorf("%w: got %d levels and %d members for %d dimensions",
			ErrCell, len(levels), len(members), len(s.Dims))
	}
	for d, dim := range s.Dims {
		if levels[d] < dim.OLevel || levels[d] > dim.MLevel {
			return cube.CellKey{}, fmt.Errorf("%w: dimension %s level %d outside retained band [%d,%d]",
				ErrCell, dim.Name, levels[d], dim.OLevel, dim.MLevel)
		}
		if card := dim.Hierarchy.Cardinality(levels[d]); members[d] < 0 || int(members[d]) >= card {
			return cube.CellKey{}, fmt.Errorf("%w: dimension %s member %d outside [0,%d) at level %d",
				ErrCell, dim.Name, members[d], card, levels[d])
		}
	}
	cb, err := cube.NewCuboid(levels...)
	if err != nil {
		return cube.CellKey{}, fmt.Errorf("%w: %v", ErrCell, err)
	}
	return cube.NewCellKey(cb, members...), nil
}

// View wraps a cubing result for navigation. Results of either algorithm
// (m/o-cubing, popular-path) work identically.
type View struct {
	res        *core.Result
	exceptions []core.Cell // res.ExceptionCells(), listed once for every scan
	lattice    *cube.Lattice
	anc        *cube.AncestorIndex // compiled roll-ups for the descendant scans and slices
}

// NewView builds a navigation view over a result.
func NewView(res *core.Result) *View {
	return &View{res: res, exceptions: res.ExceptionCells(), lattice: cube.NewLattice(res.Schema), anc: cube.NewAncestorIndex(res.Schema)}
}

// Result returns the underlying result.
func (v *View) Result() *core.Result { return v.res }

// sortCells orders by |slope| descending, breaking ties by cell identity
// so output is deterministic.
func sortCells(cells []core.Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := math.Abs(cells[i].ISB.Slope), math.Abs(cells[j].ISB.Slope)
		if a != b {
			return a > b
		}
		return cube.CompareKeys(cells[i].Key, cells[j].Key) < 0
	})
}

// TopExceptions returns the k steepest retained exception cells across all
// cuboids.
func (v *View) TopExceptions(k int) []core.Cell {
	cells := slices.Clone(v.exceptions)
	sortCells(cells)
	if k >= 0 && k < len(cells) {
		cells = cells[:k]
	}
	return cells
}

// TopObservations returns the k steepest o-layer cells — the observation
// deck ranking an analyst watches.
func (v *View) TopObservations(k int) []core.Cell {
	cells := slices.Clone(v.res.OCells())
	sortCells(cells)
	if k >= 0 && k < len(cells) {
		cells = cells[:k]
	}
	return cells
}

// Supporters returns every retained exception cell that rolls up to the
// given cell — the descendants an analyst drills into, coarsest cuboids
// first, steepest first within a cuboid. They are among the supporters of
// the cell's o-cell (core.Result.Supporters), so only those are scanned: a
// cell whose cuboid does not lie at or below the o-layer has none.
func (v *View) Supporters(cell cube.CellKey) []core.Cell {
	oLayer := v.res.Schema.OLayer()
	if !oLayer.DominatedBy(cell.Cuboid) {
		return nil
	}
	var out []core.Cell
	up := v.anc.RollUpTo(cell.Cuboid)
	for c := range v.res.Supporters(v.anc.RollUp(cell, oLayer)) {
		if a, ok := up.Key(c.Key); ok && a == cell && c.Key != cell {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := depth(out[i].Key.Cuboid), depth(out[j].Key.Cuboid)
		if di != dj {
			return di < dj
		}
		a, b := math.Abs(out[i].ISB.Slope), math.Abs(out[j].ISB.Slope)
		if a != b {
			return a > b
		}
		return cube.CompareKeys(out[i].Key, out[j].Key) < 0
	})
	return out
}

func depth(c cube.Cuboid) int {
	d := 0
	for i := 0; i < c.NumDims(); i++ {
		d += c.Level(i)
	}
	return d
}

// ExceptionChildren returns the retained exception cells in the immediate
// child cuboids of the given cell's cuboid that descend from it — one
// drill step.
func (v *View) ExceptionChildren(cell cube.CellKey) []core.Cell {
	var out []core.Cell
	up := v.anc.RollUpTo(cell.Cuboid)
	for _, childCuboid := range v.lattice.Children(cell.Cuboid) {
		for _, c := range v.exceptions {
			if c.Key.Cuboid != childCuboid {
				continue
			}
			if a, ok := up.Key(c.Key); ok && a == cell {
				out = append(out, c)
			}
		}
	}
	sortCells(out)
	return out
}

// Slice returns retained exception cells whose ancestor on dimension d at
// the given level equals member — e.g. "all exceptions inside
// north-district". Cells whose cuboid is coarser than the slicing level on
// d are excluded (their member does not determine the slice).
func (v *View) Slice(d, level int, member int32) []core.Cell {
	var out []core.Cell
	for _, c := range v.exceptions {
		cellLevel := c.Key.Cuboid.Level(d)
		if cellLevel < level {
			continue
		}
		if v.anc.Ancestor(d, cellLevel, level, c.Key.Members[d]) != member {
			continue
		}
		out = append(out, c)
	}
	sortCells(out)
	return out
}

// CuboidSummary aggregates one cuboid's retained exceptions.
type CuboidSummary struct {
	Cuboid      cube.Cuboid
	Exceptions  int
	MaxAbsSlope float64
}

// Summary returns per-cuboid exception counts, coarsest cuboids first.
// Cuboids without retained exceptions are included with zero counts so the
// lattice shape stays visible.
func (v *View) Summary() []CuboidSummary {
	byCuboid := make(map[cube.Cuboid]*CuboidSummary)
	for _, c := range v.lattice.Cuboids() {
		byCuboid[c] = &CuboidSummary{Cuboid: c}
	}
	for _, c := range v.exceptions {
		s := byCuboid[c.Key.Cuboid] // a result's exceptions lie in its lattice
		s.Exceptions++
		if a := math.Abs(c.ISB.Slope); a > s.MaxAbsSlope {
			s.MaxAbsSlope = a
		}
	}
	out := make([]CuboidSummary, 0, len(byCuboid))
	for _, c := range v.lattice.Cuboids() {
		out = append(out, *byCuboid[c])
	}
	return out
}
