package core

import (
	"time"

	"repro/internal/cube"
	"repro/internal/htree"
	"repro/internal/regression"
)

// FullResult is the output of the non-exception-driven baseline: every
// cell of every cuboid between the critical layers, fully materialized.
type FullResult struct {
	Schema  *cube.Schema
	Cuboids map[cube.Cuboid]map[cube.CellKey]regression.ISB
	Stats   Stats
}

// CellCount returns the total number of materialized cells.
func (r *FullResult) CellCount() int64 {
	var n int64
	for _, cells := range r.Cuboids {
		n += int64(len(cells))
	}
	return n
}

// FullCubing fully materializes the regression cube: every cell of every
// cuboid between the critical layers, with no pruning. It is the exact
// oracle the cubing kernels are tested against — its cells are the
// brute-force aggregation of the inputs, so any retained-exception set is a
// filter of it. No production path runs it.
func FullCubing(s *cube.Schema, inputs []Input) (*FullResult, error) {
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	tree, err := buildTree(s, htree.CardinalityOrder(s), inputs)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)

	lattice := cube.NewLattice(s)
	res := &FullResult{
		Schema:  s,
		Cuboids: make(map[cube.Cuboid]map[cube.CellKey]regression.ISB, lattice.Size()),
	}
	st := &res.Stats
	st.Algorithm = "full-cubing"
	st.Tuples = len(inputs)
	st.TreeNodes = tree.NodeCount()
	st.TreeLeaves = tree.LeafCount()
	st.BuildTime = build

	cubeStart := time.Now()
	leaves := tree.Leaves()
	leafCells := make([]Cell, len(leaves))
	for i, leaf := range leaves {
		leafCells[i] = Cell{Key: tree.CellKeyOf(leaf), ISB: leaf.Measure}
	}
	for _, c := range lattice.Cuboids() {
		cells := make(map[cube.CellKey]regression.ISB)
		for _, lc := range leafCells {
			key, err := cube.RollUpKey(s, lc.Key, c)
			if err != nil {
				return nil, err
			}
			accumulate(cells, key, lc.ISB)
		}
		res.Cuboids[c] = cells
		st.CuboidsComputed++
		st.CellsComputed += int64(len(cells))
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = st.CellsComputed
	st.BytesRetained = tree.BytesEstimate() + st.CellsRetained*bytesPerCell
	st.PeakBytes = st.BytesRetained
	return res, nil
}
