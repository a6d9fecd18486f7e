package core

import (
	"time"

	"repro/internal/cube"
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
// filter of it.
func FullCubing(s *cube.Schema, inputs []Input) (*FullResult, error) {
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	start := time.Now()
	leaves, _ := NewWorkspace(s).foldLeaves(inputs, false)
	lattice := cube.NewLattice(s)
	res := &FullResult{
		Schema:  s,
		Cuboids: make(map[cube.Cuboid]map[cube.CellKey]regression.ISB, lattice.Size()),
	}
	st := &res.Stats
	st.Algorithm = "full-cubing"
	st.Tuples = len(inputs)
	st.TreeLeaves = len(leaves)
	st.BuildTime = time.Since(start)

	cubeStart := time.Now()
	for _, c := range lattice.Cuboids() {
		cells := make(map[cube.CellKey]regression.ISB)
		for _, leaf := range leaves {
			key, err := cube.RollUpKey(s, leaf.Key, c)
			if err != nil {
				return nil, err
			}
			accumulate(cells, key, leaf.ISB)
		}
		res.Cuboids[c] = cells
		st.CuboidsComputed++
		st.CellsComputed += int64(len(cells))
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = st.CellsComputed
	st.BytesRetained = st.CellsRetained * bytesPerCell
	st.PeakBytes = st.BytesRetained
	return res, nil
}

// accumulate merges an ISB into a cell table by standard-dimension
// aggregation (bases and slopes add; Theorem 3.2): the references' header
// table.
func accumulate(cells map[cube.CellKey]regression.ISB, key cube.CellKey, isb regression.ISB) {
	if cur, ok := cells[key]; ok {
		cur.Base += isb.Base
		cur.Slope += isb.Slope
		cells[key] = cur
	} else {
		cells[key] = isb
	}
}
