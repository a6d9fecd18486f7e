package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
)

// pathAttr is one column of a leaf's path key: its member of dimension dim
// at level level.
type pathAttr struct{ dim, level int }

// pathLevel is one path cuboid's cells in path-key order. Cell k sums the
// sorted leaves [starts[k], starts[k+1]); the last start is the leaf count.
type pathLevel struct {
	cells  []Cell
	starts []int32
}

// drillFrom is one cuboid's retained exceptions in canonical order, and
// where the cells of path cuboid level they sum lie in PopularPath's srcs.
type drillFrom struct {
	excs         []Cell
	level        int
	srcLo, srcHi int
}

// PopularPath runs Algorithm 2 (popular-path cubing) with the given
// drilling path (use lattice.DefaultPath() when indifferent).
//
// The paper keeps the path's roll-ups in the non-leaf nodes of an H-tree
// built in path order; here the tree's levels are runs over the leaves
// sorted by path key, and the tree is modelled, not built. Step 1 folds
// the batch into its m-layer cells and sorts them; Step 2 rolls them up
// along the path (rollUpPath). Step 3 drills recursively from the o-layer:
// only the children cells of exception cells are computed in non-path
// cuboids, each summed in path order from the cells of the closest
// computed path cuboid below it found in its exception parents' leaf
// ranges — "the cells to be computed are related only to the exception
// cells".
func PopularPath(s *cube.Schema, inputs []Input, thr exception.Thresholder, path cube.Path) (*Result, error) {
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	w := NewWorkspace(s)
	levels, nodes, err := rollUpPath(w, inputs, path)
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: s}
	st := &res.Stats
	st.Algorithm = "popular-path"
	st.Tuples = len(inputs)
	st.TreeNodes = nodes
	st.TreeLeaves = len(levels[len(levels)-1].cells)
	st.BuildTime = time.Since(start)
	cubeStart := time.Now()

	var pathCells int64
	for _, l := range levels {
		pathCells += int64(len(l.cells))
	}
	st.CellsComputed = pathCells
	st.CuboidsComputed = len(levels)
	oCells := int64(len(levels[0].cells))
	treeBytes := int64(nodes) * bytesPerNode
	// excs counts the exceptions retained so far, and srcs lists the
	// covering cells each sums; the memory model counts both.
	var excs int64
	var srcs []int32

	// Step 3: lattice walk, coarsest-first. A path cuboid's cells are its
	// level's; an off-path cuboid's are computed only under exception
	// parents, from the covering cells in their leaf ranges.
	drills := make(map[cube.Cuboid]drillFrom)
	sc := &w.scratch
	var covering []int32 // the cells of path cuboid level that c sums
	var gathered, kept []Cell
	for _, c := range w.lattice.Cuboids() {
		level := path.Depth(c)
		covering = covering[:0]
		if level >= 0 {
			for j := range levels[level].cells {
				covering = append(covering, int32(j))
			}
		} else {
			level = path.Depth(path.Covering(c))
			starts := levels[level].starts
			for _, p := range w.lattice.Parents(c) {
				from := drills[p]
				for _, src := range srcs[from.srcLo:from.srcHi] {
					span := levels[from.level].starts[src : src+2]
					lo, _ := slices.BinarySearch(starts, span[0])
					hi, _ := slices.BinarySearch(starts, span[1])
					for j := lo; j < hi; j++ {
						covering = append(covering, int32(j))
					}
				}
			}
			if len(covering) == 0 {
				continue
			}
			// Cells reached under two exception parents count once, and
			// every cell sums its covering cells in path order.
			slices.Sort(covering)
			covering = slices.Compact(covering)
		}
		gathered = gathered[:0]
		for _, j := range covering {
			gathered = append(gathered, levels[level].cells[j])
		}
		sc.aggregate(s, w.idx, gathered, path.Cuboids[level], c)
		d := drillFrom{level: level, srcLo: len(srcs)}
		threshold := thr.Threshold(c)
		kept = kept[:0]
		for k, cell := range sc.cells {
			if c == s.OLayer() {
				res.oLayer = append(res.oLayer, cell)
			}
			if exception.IsException(cell.ISB, threshold) {
				kept = append(kept, cell)
				for _, e := range sc.entries[sc.runs[k]:sc.runs[k+1]] {
					srcs = append(srcs, covering[e.idx])
				}
			}
		}
		if !path.OnPath(c) {
			st.CuboidsComputed++
			computed := int64(len(sc.cells))
			st.CellsComputed += computed
			st.PeakScratchCells = max(st.PeakScratchCells, computed)
			st.PeakBytes = max(st.PeakBytes, treeBytes+(pathCells+computed+excs+oCells)*bytesPerCell+int64(d.srcLo)*8)
		}
		d.excs, d.srcHi = slices.Clone(kept), len(srcs)
		excs += int64(len(kept))
		drills[c] = d
	}

	// Each cuboid's exceptions are canonical within it, so laid out in
	// canonical cuboid order they are canonical throughout.
	res.exceptions = make([]Cell, 0, excs)
	for _, i := range w.canon {
		res.exceptions = append(res.exceptions, drills[w.lattice.Cuboids()[i]].excs...)
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = pathCells + excs + oCells
	st.BytesRetained = treeBytes + st.CellsRetained*bytesPerCell + int64(len(srcs))*8
	st.PeakBytes = max(st.PeakBytes, st.BytesRetained)
	res.groupByOCell(w.idx) // every cell aggregates into one o-cell: cannot fail
	return res, nil
}

// rollUpPath is Steps 1 and 2 of PopularPath. It folds the inputs into
// their m-layer cells (the leaves) and sorts them by path key; path cuboid
// i is then the run-length roll-up of cuboid i+1 by the key's first
// oAttrs+i columns, children summed first to last as the tree's interior
// nodes sum theirs. nodes counts the tree those runs model: the root, and
// per leaf the nodes below the key prefix it shares with the leaf before.
func rollUpPath(w *Workspace, inputs []Input, path cube.Path) (levels []pathLevel, nodes int, err error) {
	attrs, oAttrs, err := pathAttrs(w.schema, path)
	if err != nil {
		return nil, 0, err
	}
	leaves, _ := w.foldLeaves(inputs, false)
	leaves, diffs := sortByPathKey(w.schema, w.idx, attrs, leaves)
	nodes = len(attrs) + 1 // the first leaf's root-to-leaf chain
	for _, d := range diffs[1:] {
		nodes += len(attrs) - d
	}
	levels = make([]pathLevel, len(path.Cuboids))
	last := &levels[len(levels)-1]
	last.cells, last.starts = leaves, make([]int32, len(leaves)+1)
	for r := range last.starts {
		last.starts[r] = int32(r)
	}
	for i := len(levels) - 2; i >= 0; i-- {
		below, cur := &levels[i+1], &levels[i]
		cur.cells = make([]Cell, 0, len(below.cells))
		for k, cell := range below.cells {
			if first := below.starts[k]; k == 0 || diffs[first] < oAttrs+i {
				cell.Key = w.idx.RollUp(cell.Key, path.Cuboids[i])
				cur.cells = append(cur.cells, cell)
				cur.starts = append(cur.starts, first)
				continue
			}
			sum := &cur.cells[len(cur.cells)-1].ISB
			sum.Base += cell.ISB.Base
			sum.Slope += cell.ISB.Slope
		}
		cur.starts = append(cur.starts, int32(len(leaves)))
	}
	return levels, nodes, nil
}

// pathAttrs checks that p runs from s's o-layer to its m-layer, drilling
// one dimension one level per step, and returns the columns of the path
// key: the o-layer's levels below ALL, per dimension coarsest first, then
// the level each step drills — the attribute order of the paper's
// path-ordered H-tree, ⟨(A1,C1)→B1→B2→A2→C2⟩. The first oAttrs+i columns
// identify a cell of path cuboid i.
func pathAttrs(s *cube.Schema, p cube.Path) (attrs []pathAttr, oAttrs int, err error) {
	o := s.OLayer()
	if len(p.Cuboids) == 0 || p.Cuboids[0] != o {
		return nil, 0, fmt.Errorf("%w: the path does not start at the o-layer %s", ErrInput, o.Describe(s))
	}
	for d := range s.Dims {
		for l := 1; l <= o.Level(d); l++ {
			attrs = append(attrs, pathAttr{dim: d, level: l})
		}
	}
	oAttrs = len(attrs)
	for i, c := range p.Cuboids[1:] {
		prev, step := p.Cuboids[i], -1
		for d := range s.Dims {
			if prev.WithLevel(d, prev.Level(d)+1) == c {
				step = d
			}
		}
		if step < 0 {
			return nil, 0, fmt.Errorf("%w: path step %d does not drill one dimension one level", ErrInput, i+1)
		}
		attrs = append(attrs, pathAttr{dim: step, level: c.Level(step)})
	}
	if m := s.MLayer(); p.Cuboids[len(p.Cuboids)-1] != m {
		return nil, 0, fmt.Errorf("%w: the path does not end at the m-layer %s", ErrInput, m.Describe(s))
	}
	return attrs, oAttrs, nil
}

// sortByPathKey returns the leaves sorted by their members at attrs, and
// for each sorted leaf after the first the first column at which its key
// differs from the one before: leaf r starts a new cell of the cuboid a
// k-column prefix identifies exactly when diffs[r] < k.
func sortByPathKey(s *cube.Schema, idx *cube.AncestorIndex, attrs []pathAttr, leaves []Cell) (sorted []Cell, diffs []int) {
	na := len(attrs)
	keys := make([]int32, len(leaves)*na)
	for j, a := range attrs {
		r := idx.Resolver(a.dim, s.Dims[a.dim].MLevel, a.level)
		for i := range leaves {
			keys[i*na+j] = r.Resolve(leaves[i].Key.Members[a.dim])
		}
	}
	key := func(i int32) []int32 { return keys[int(i)*na : int(i+1)*na] }
	order := make([]int32, len(leaves))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })
	sorted, diffs = make([]Cell, len(leaves)), make([]int, len(leaves))
	for r, i := range order {
		sorted[r] = leaves[i]
		if r > 0 {
			prev, cur := key(order[r-1]), key(i)
			for prev[diffs[r]] == cur[diffs[r]] {
				diffs[r]++ // distinct leaves: their keys differ somewhere
			}
		}
	}
	return sorted, diffs
}
