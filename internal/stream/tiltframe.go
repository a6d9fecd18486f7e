package stream

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// recordTilt registers the closed unit with every o-cell frame of the
// shard: the unit's list of frame records replaces the last one, each
// record followed by its successor (tilt.UnitFrameState.Push), which
// shares every slot the unit did not complete; the successors' level
// records are cut from one slab. Cells with data this unit push their
// o-layer ISB; cells absent the whole unit push a zero regression over the
// unit's interval — the unit-level extension of "absent readings count as
// zero usage" — so frames stay contiguous, trend windows span quiet units
// at every granularity and promotions never see gaps. Cells seen for the
// first time start a frame at this unit (no back-fill). The unit's Result
// is nil when it closed empty.
func (sh *shard) recordTilt(ur *UnitResult) error {
	res := ur.Result
	if res == nil {
		res = &core.Result{} // no o-cell has data
	}
	e, oc := sh.e, sh.e.cfg.Schema.OLayer()
	chain, nl := e.cfg.TiltLevels, len(e.cfg.TiltLevels)
	zero := regression.ISB{Tb: ur.Interval.Tb, Te: ur.Interval.Te}
	next := make([]CellFrame, len(sh.frames))
	recs := make([]tilt.LevelStateRec, len(next)*nl)
	seen := 0
	for i := range next {
		f := &next[i]
		*f = sh.frames[i]
		isb, ok := res.OCell(cube.NewCellKey(oc, f.Members...))
		if ok {
			seen++
		} else {
			isb = zero
		}
		var err error
		if f.Frame, err = f.Frame.Push(chain, isb, recs[i*nl:(i+1)*nl:(i+1)*nl]); err != nil {
			return fmt.Errorf("stream: tilt promotion for %v: %w", f.Members, err)
		}
	}
	if seen < res.NumOCells() {
		var fresh []CellFrame // in canonical order, as the shard's one-part result lists its o-cells
		for _, c := range res.OCells() {
			if frameOf(sh.frames, c.Key) != nil {
				continue
			}
			f := CellFrame{Levels: e.oLevels, Members: slices.Clone(c.Key.Members[:len(e.oLevels)]), Base: ur.Unit}
			var err error
			if f.Frame, err = f.Frame.Push(chain, c.ISB, nil); err != nil {
				return fmt.Errorf("stream: tilt push for %v: %w", c.Key, err)
			}
			fresh = append(fresh, f)
		}
		next, _ = core.MergeRuns(nil, [][]CellFrame{next, fresh}, compareCellFrames)
	}
	sh.frames = next
	return nil
}

// frameOf returns the record of cell in a coordinate-ordered frame list,
// or nil when the list holds none.
func frameOf(frames []CellFrame, cell cube.CellKey) *CellFrame {
	i, ok := slices.BinarySearchFunc(frames, cell, func(f CellFrame, cell cube.CellKey) int {
		return cube.CompareKeys(f.Key(), cell)
	})
	if !ok {
		return nil
	}
	return &frames[i]
}

// TiltSlots returns the total retained and maximum frame slots across all
// o-cell frames — the bounded-state invariant of §4.1: inUse never exceeds
// cells × the chain's slot capacity no matter how many units have flowed
// through.
func (e *Engine) TiltSlots() (inUse, capacity int) {
	for _, lv := range e.cfg.TiltLevels {
		capacity += lv.Slots
	}
	for _, f := range e.frames {
		for _, lv := range f.Frame.Levels {
			inUse += len(lv.Slots)
		}
	}
	return inUse, capacity * len(e.frames)
}
