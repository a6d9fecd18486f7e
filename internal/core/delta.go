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
	// Both windows fold on one workspace; the current window's leaves are
	// detached before the previous window's fold reuses the buffer.
	w := NewWorkspace(s)
	curLeaves, _ := w.foldLeaves(cur, false)
	w.leafCells = nil
	prevLeaves, _ := w.foldLeaves(prev, false)

	res := &DeltaResult{
		Schema:     s,
		OLayer:     make(map[cube.CellKey]DeltaCell),
		Exceptions: make(map[cube.CellKey]DeltaCell),
	}
	st := &res.Stats
	st.Algorithm = "delta-cubing"
	st.Tuples = len(cur) + len(prev)
	st.TreeLeaves = len(curLeaves)
	st.BuildTime = time.Since(start)

	cubeStart := time.Now()
	oLayer := s.OLayer()
	// Each window runs m/o-cubing's pass per cuboid, so its cells are
	// MOCubing's bit for bit, both lists in canonical order; a merge join
	// pairs them.
	var prevScratch runScratch
	for _, c := range w.lattice.Cuboids() {
		st.CuboidsComputed++
		w.scratch.aggregate(s, w.idx, curLeaves, s.MLayer(), c)
		prevScratch.aggregate(s, w.idx, prevLeaves, s.MLayer(), c)
		curCells, prevCells := w.scratch.cells, prevScratch.cells
		st.CellsComputed += int64(len(curCells))
		st.PeakScratchCells = max(st.PeakScratchCells, int64(len(curCells)+len(prevCells)))
		j := 0
		for _, cell := range curCells {
			for j < len(prevCells) && cube.CompareKeys(prevCells[j].Key, cell.Key) < 0 {
				j++
			}
			dc := DeltaCell{Key: cell.Key, Cur: cell.ISB}
			if j < len(prevCells) && prevCells[j].Key == cell.Key {
				dc.Prev, dc.HavePrev = prevCells[j].ISB, true
			}
			if c == oLayer {
				res.OLayer[cell.Key] = dc
			}
			if det.Exceptional(dc.Cur, dc.Prev, dc.HavePrev) {
				res.Exceptions[cell.Key] = dc
			}
		}
	}
	st.CubeTime = time.Since(cubeStart)
	st.CellsRetained = int64(len(res.OLayer) + len(res.Exceptions))
	st.BytesRetained = st.CellsRetained * bytesPerCell * 2 // two ISBs per cell
	st.PeakBytes = st.BytesRetained
	return res, nil
}
