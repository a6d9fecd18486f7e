package stream

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
	"repro/internal/timeseries"
)

// AdvanceFrames returns the frame list that follows frames once unit u,
// over interval iv, has closed with result res (nil when the unit closed
// empty). frames is a coordinate-ordered list of o-cell frame records,
// each a state of chain; every record is followed by its successor
// (tilt.UnitFrameState.Push), which shares every slot the unit did not
// complete, and the successors' level records are cut from one slab. Cells
// with data this unit push their o-layer ISB; cells absent the whole unit
// push a zero regression over the unit's interval — the unit-level
// extension of "absent readings count as zero usage" — so frames stay
// contiguous, trend windows span quiet units at every granularity and
// promotions never see gaps. Cells seen for the first time start a frame
// at this unit (no back-fill). An o-cell whose regression does not span iv
// is an error. frames reads as before, but takes no second successor: one
// would write the slots past its window the first one owns.
//
// A shard runs it at every close, over its partition's frames and its
// one-part result; a snapshot decoder runs it over a successor document's
// predecessor (DecodeSnapshotAfter). The list is a pure function of its
// inputs, so the two are equal bit for bit.
func AdvanceFrames(frames []CellFrame, res *core.Result, u int64, iv timeseries.Interval, chain []tilt.Level) ([]CellFrame, error) {
	var oCells []core.Cell
	if res != nil {
		oCells = res.OCells()
	}
	// Frames and o-cells are both in coordinate order on one cuboid, so
	// one merge-join pairs them; a first pass counts the fresh cells.
	order := func(f *CellFrame, c *core.Cell) int { return slices.Compare(f.Members, c.Key.Members[:len(f.Members)]) }
	fresh := 0
	for i, j := 0, 0; j < len(oCells); {
		switch {
		case i == len(frames):
			fresh += len(oCells) - j
			j = len(oCells)
		case order(&frames[i], &oCells[j]) < 0:
			i++
		case order(&frames[i], &oCells[j]) > 0:
			fresh, j = fresh+1, j+1
		default:
			i, j = i+1, j+1
		}
	}
	nl := len(chain)
	next := make([]CellFrame, len(frames)+fresh)
	recs := make([]tilt.LevelStateRec, len(next)*nl)
	zero := regression.ISB{Tb: iv.Tb, Te: iv.Te}
	var levels []int // the o-layer's, for fresh frames
	for k, i, j := 0, 0, 0; k < len(next); k++ {
		f, isb := &next[k], zero
		switch {
		case j == len(oCells) || (i < len(frames) && order(&frames[i], &oCells[j]) < 0):
			*f = frames[i]
			i++
		case i == len(frames) || order(&frames[i], &oCells[j]) > 0:
			c := &oCells[j]
			if levels == nil {
				levels = make([]int, c.Key.Cuboid.NumDims())
				for d := range levels {
					levels[d] = c.Key.Cuboid.Level(d)
				}
			}
			*f = CellFrame{Levels: levels, Members: slices.Clone(c.Key.Members[:len(levels)]), Base: u}
			isb = c.ISB
			j++
		default:
			*f = frames[i]
			isb = oCells[j].ISB
			i, j = i+1, j+1
		}
		if isb.Tb != iv.Tb || isb.Te != iv.Te {
			return nil, fmt.Errorf("stream: o-cell %v regresses over [%d,%d], not the unit's [%d,%d]", f.Members, isb.Tb, isb.Te, iv.Tb, iv.Te)
		}
		var err error
		if f.Frame, err = f.Frame.Push(chain, isb, recs[k*nl:(k+1)*nl:(k+1)*nl]); err != nil {
			return nil, fmt.Errorf("stream: tilt push for o-cell %v: %w", f.Members, err)
		}
	}
	return next, nil
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
