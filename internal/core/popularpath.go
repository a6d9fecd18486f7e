package core

import (
	"slices"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/htree"
	"repro/internal/regression"
)

// excSrc tracks one retained exception cell together with the H-tree nodes
// that cover it at its covering path cuboid's depth. Drilling below the
// cell enumerates those nodes' subtrees — work proportional to the
// exception cells, exactly Algorithm 2's cost model ("the cells to be
// computed are related only to the exception cells").
type excSrc struct {
	key     cube.CellKey
	sources []*htree.Node
}

// PopularPath runs Algorithm 2 (popular-path cubing) with the given
// drilling path (use lattice.DefaultPath() when indifferent).
//
// Step 1 builds the H-tree in path order; Step 2 rolls the m-layer up to
// the o-layer along the path, storing regression points in the non-leaf
// tree nodes (read off by pathCells); Step 3 drills recursively from the
// o-layer: only the children cells of exception cells are computed in
// non-path cuboids, each aggregated from the closest computed path cuboid
// below it — enumerated as H-tree subtrees of the exception cell's source
// nodes rather than by scanning whole cuboids.
func PopularPath(s *cube.Schema, inputs []Input, thr exception.Thresholder, path cube.Path) (*Result, error) {
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	tree, err := buildTree(s, htree.PathOrder(s, path), inputs)
	if err != nil {
		return nil, err
	}
	if err := tree.PropagateUp(); err != nil {
		return nil, err
	}
	build := time.Since(start)

	idx := tree.AncestorIndex() // built once with the tree
	lattice := cube.NewLattice(s)
	res := &Result{Schema: s}
	// The exceptions are kept in a table while drilling and listed in
	// canonical order at the end.
	excs := make(map[cube.CellKey]regression.ISB)
	st := &res.Stats
	st.Algorithm = "popular-path"
	st.Tuples = len(inputs)
	st.TreeNodes = tree.NodeCount()
	st.TreeLeaves = tree.LeafCount()
	st.BuildTime = build

	cubeStart := time.Now()

	// Step 2: the path cuboids are materialized at tree depths oAttrs+i.
	oAttrs := 0
	for d := range s.Dims {
		oAttrs += s.Dims[d].OLevel
	}
	depthOf := make(map[cube.Cuboid]int, len(path.Cuboids))
	var pathCellCount int64
	onPath := pathCells(tree, path, oAttrs)
	for i, pc := range path.Cuboids {
		depthOf[pc] = oAttrs + i
		pathCellCount += int64(len(onPath[i]))
	}
	st.CellsComputed += pathCellCount
	st.CuboidsComputed = len(path.Cuboids)

	oCells := onPath[0] // a path starts at the o-layer

	// Exception registry: retained exception cells per cuboid with their
	// source nodes for further drilling.
	excByCuboid := make(map[cube.Cuboid][]excSrc)
	var srcRefs int64 // retained source-pointer count, for the memory model

	treeBytes := tree.BytesEstimate()
	updatePeak := func(scratch int64) {
		peak := treeBytes + (pathCellCount+scratch+int64(len(excs))+int64(len(oCells)))*bytesPerCell + srcRefs*8
		if peak > st.PeakBytes {
			st.PeakBytes = peak
		}
	}
	updatePeak(0)

	// Step 3: lattice walk, coarsest-first. Path cuboids surface their
	// exceptions (sources = their own tree nodes); off-path cuboids are
	// computed only under exception parents, from subtree enumeration.
	for _, c := range lattice.Cuboids() {
		threshold := thr.Threshold(c)
		if depth, onPath := depthOf[c]; onPath {
			if depth == 0 {
				root := tree.Root()
				if root.HasMeasure && exception.IsException(root.Measure, threshold) {
					key := cube.CellKey{Cuboid: c}
					excs[key] = root.Measure
					excByCuboid[c] = append(excByCuboid[c], excSrc{key: key, sources: []*htree.Node{root}})
					srcRefs++
				}
				continue
			}
			for _, n := range tree.NodesAtDepth(depth) {
				if exception.IsException(n.Measure, threshold) {
					key := tree.CellKeyOf(n)
					excs[key] = n.Measure
					excByCuboid[c] = append(excByCuboid[c], excSrc{key: key, sources: []*htree.Node{n}})
					srcRefs++
				}
			}
			continue
		}

		// Off-path cuboid: gather exception parents.
		var parentExc []excSrc
		for _, p := range lattice.Parents(c) {
			parentExc = append(parentExc, excByCuboid[p]...)
		}
		if len(parentExc) == 0 {
			continue
		}
		st.CuboidsComputed++
		targetDepth := depthOf[path.Covering(c)]

		type aggCell struct {
			isb     regression.ISB
			sources []*htree.Node
		}
		scratch := make(map[cube.CellKey]*aggCell)
		visited := make(map[*htree.Node]bool)
		for _, e := range parentExc {
			for _, src := range e.sources {
				src.WalkAtDepth(targetDepth, func(n *htree.Node) {
					if visited[n] {
						return
					}
					visited[n] = true
					// The covering path cuboid always dominates c, so the
					// unchecked indexed roll-up is safe.
					key := idx.RollUp(tree.CellKeyOf(n), c)
					cell := scratch[key]
					if cell == nil {
						cell = &aggCell{isb: n.Measure}
						scratch[key] = cell
					} else {
						cell.isb.Base += n.Measure.Base
						cell.isb.Slope += n.Measure.Slope
					}
					cell.sources = append(cell.sources, n)
				})
			}
		}
		st.CellsComputed += int64(len(scratch))
		if n := int64(len(scratch)); n > st.PeakScratchCells {
			st.PeakScratchCells = n
		}
		updatePeak(int64(len(scratch)))
		// Canonical key order: the registry's append order feeds the visit
		// order of deeper drills, which must be reproducible.
		for _, key := range SortedCellKeys(scratch) {
			cell := scratch[key]
			if exception.IsException(cell.isb, threshold) {
				if _, dup := excs[key]; !dup {
					excs[key] = cell.isb
					excByCuboid[c] = append(excByCuboid[c], excSrc{key: key, sources: cell.sources})
					srcRefs += int64(len(cell.sources))
				}
			}
		}
	}

	res.oLayer, res.exceptions = cellList(oCells), cellList(excs)
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = pathCellCount + int64(len(excs)) + int64(len(oCells))
	st.BytesRetained = treeBytes + st.CellsRetained*bytesPerCell + srcRefs*8
	if st.BytesRetained > st.PeakBytes {
		st.PeakBytes = st.BytesRetained
	}
	res.groupByOCell(idx) // every cell aggregates into one o-cell: cannot fail
	return res, nil
}

// pathCells is Step 2: in a tree built in path order and rolled up, path
// cuboid i's cells are the nodes at depth oAttrs+i, the o-layer's depth
// plus i. Listed in path order.
func pathCells(tree *htree.HTree, path cube.Path, oAttrs int) []map[cube.CellKey]regression.ISB {
	out := make([]map[cube.CellKey]regression.ISB, len(path.Cuboids))
	for i := range path.Cuboids {
		nodes := tree.NodesAtDepth(oAttrs + i)
		if root := tree.Root(); oAttrs+i == 0 && root.HasMeasure {
			nodes = []*htree.Node{root} // the o-layer at the apex: one root cell
		}
		out[i] = make(map[cube.CellKey]regression.ISB, len(nodes))
		for _, n := range nodes {
			out[i][tree.CellKeyOf(n)] = n.Measure
		}
	}
	return out
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
