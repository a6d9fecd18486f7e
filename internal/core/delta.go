package core

import (
	"fmt"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// DeltaCell pairs a cell's regression in the current window with the
// previous window's (§4.3: "the regression line may refer to ... the
// current cell (such as the current quarter) vs. the previous one").
type DeltaCell struct {
	Key      cube.CellKey
	Cur      regression.ISB
	Prev     regression.ISB
	HavePrev bool
}

// SlopeChange returns |cur.Slope − prev.Slope|, or 0 without a previous
// window.
func (d DeltaCell) SlopeChange() float64 {
	if !d.HavePrev {
		return 0
	}
	diff := d.Cur.Slope - d.Prev.Slope
	if diff < 0 {
		return -diff
	}
	return diff
}

// DeltaResult is the outcome of a change-based cubing run.
type DeltaResult struct {
	Schema *cube.Schema
	// OLayer holds every o-layer cell with both windows' regressions.
	OLayer map[cube.CellKey]DeltaCell
	// Exceptions holds the cells whose slope changed at least the
	// detector's threshold between the windows, at every cuboid.
	Exceptions map[cube.CellKey]DeltaCell
	Stats      Stats
}

// DeltaCubing computes the change-based exception cube between two
// adjacent time windows: every cell of every cuboid is aggregated in both
// windows (one m/o-style pass per cuboid), and cells whose slope moved at
// least det.MinSlopeChange are retained. Cells absent from the previous
// window are never exceptional (no base to compare).
//
// prev's interval must end exactly one tick before cur's begins; prev may
// be empty (first window of a stream).
func DeltaCubing(s *cube.Schema, cur, prev []Input, det exception.Delta) (*DeltaResult, error) {
	if err := validate(s, cur); err != nil {
		return nil, err
	}
	if len(prev) > 0 {
		if err := validate(s, prev); err != nil {
			return nil, fmt.Errorf("previous window: %w", err)
		}
		if prev[0].Measure.Te+1 != cur[0].Measure.Tb {
			return nil, fmt.Errorf("%w: previous window ends at %d, current begins at %d",
				ErrInput, prev[0].Measure.Te, cur[0].Measure.Tb)
		}
	}
	start := time.Now()

	m := s.MLayer()
	mergeToM := func(inputs []Input) map[cube.CellKey]regression.ISB {
		out := make(map[cube.CellKey]regression.ISB, len(inputs))
		for _, in := range inputs {
			var members [cube.MaxDims]int32
			copy(members[:], in.Members)
			accumulate(out, cube.CellKey{Cuboid: m, Members: members}, in.Measure)
		}
		return out
	}
	curM := mergeToM(cur)
	prevM := mergeToM(prev)
	build := time.Since(start)

	lattice := cube.NewLattice(s)
	res := &DeltaResult{
		Schema:     s,
		OLayer:     make(map[cube.CellKey]DeltaCell),
		Exceptions: make(map[cube.CellKey]DeltaCell),
	}
	st := &res.Stats
	st.Algorithm = "delta-cubing"
	st.Tuples = len(cur) + len(prev)
	st.TreeLeaves = len(curM)
	st.BuildTime = build

	cubeStart := time.Now()
	oLayer := s.OLayer()
	// Precomputed ancestor tables: every m-cell rolls up per cuboid with
	// slice indexing instead of an interface walk (m-layer keys dominate
	// every lattice cuboid, so the unchecked RollUp is safe).
	idx := cube.NewAncestorIndex(s)
	// Canonical m-cell order: per-cell sums are then bitwise reproducible.
	curKeys := SortedCellKeys(curM)
	prevKeys := SortedCellKeys(prevM)
	for _, c := range lattice.Cuboids() {
		st.CuboidsComputed++
		curCells := make(map[cube.CellKey]regression.ISB, len(curKeys))
		for _, key := range curKeys {
			accumulate(curCells, idx.RollUp(key, c), curM[key])
		}
		prevCells := make(map[cube.CellKey]regression.ISB, len(prevKeys))
		for _, key := range prevKeys {
			accumulate(prevCells, idx.RollUp(key, c), prevM[key])
		}
		st.CellsComputed += int64(len(curCells))
		if n := int64(len(curCells) + len(prevCells)); n > st.PeakScratchCells {
			st.PeakScratchCells = n
		}
		isO := c.Equal(oLayer)
		for key, curISB := range curCells {
			prevISB, have := prevCells[key]
			dc := DeltaCell{Key: key, Cur: curISB, Prev: prevISB, HavePrev: have}
			if isO {
				res.OLayer[key] = dc
			}
			if det.Exceptional(curISB, prevISB, have) {
				res.Exceptions[key] = dc
			}
		}
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = int64(len(res.OLayer) + len(res.Exceptions))
	st.BytesRetained = st.CellsRetained * bytesPerCell * 2 // two ISBs per cell
	st.PeakBytes = st.BytesRetained
	return res, nil
}

// accumulate merges an ISB into a cell table by standard-dimension
// aggregation (bases and slopes add; Theorem 3.2).
func accumulate(cells map[cube.CellKey]regression.ISB, key cube.CellKey, isb regression.ISB) {
	if cur, ok := cells[key]; ok {
		cur.Base += isb.Base
		cur.Slope += isb.Slope
		cells[key] = cur
	} else {
		cells[key] = isb
	}
}
