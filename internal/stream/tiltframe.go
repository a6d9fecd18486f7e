package stream

import (
	"fmt"
	"slices"

	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// cellFrame binds one o-cell's tilt frame to the engine unit it started
// at: frame-local unit ordinal u is engine unit base+u at the finest
// level.
type cellFrame struct {
	base  int64
	frame *tilt.UnitFrame
}

// recordTilt registers the closed unit with every o-cell frame. Cells with
// data this unit push their o-layer ISB; cells absent the whole unit push
// a zero regression over the unit's interval — the unit-level extension of
// "absent readings count as zero usage" — so frames stay contiguous, trend
// windows span quiet units at every granularity and promotions never see
// gaps. Cells seen for the first time start a frame at this unit (no
// back-fill). The unit's Result is nil when it closed empty.
func (sh *shard) recordTilt(ur *UnitResult) error {
	res := ur.Result
	zero := regression.ISB{Tb: ur.Interval.Tb, Te: ur.Interval.Te}
	for key, cf := range sh.frames {
		isb := zero
		if res != nil {
			if v, ok := res.OLayer[key]; ok {
				isb = v
			}
		}
		if err := cf.frame.Push(isb); err != nil {
			return fmt.Errorf("stream: tilt promotion for %v: %w", key, err)
		}
	}
	if res == nil {
		return nil
	}
	for key, isb := range res.OLayer {
		if _, ok := sh.frames[key]; ok {
			continue
		}
		f, err := tilt.NewUnitFrame(sh.e.cfg.TiltLevels)
		if err != nil {
			// The level chain was validated by NewEngine.
			return fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
		}
		if err := f.Push(isb); err != nil {
			return fmt.Errorf("stream: tilt push for %v: %w", key, err)
		}
		sh.frames[key] = &cellFrame{base: ur.Unit, frame: f}
	}
	return nil
}

// cutFrames cuts every o-cell frame of the shard, in coordinate order, into
// fresh storage: the frame records a snapshot publishes and a checkpoint
// writes, never touched again once cut. The records, their member tuples,
// level records and slots are cut from one slab each; all of them share the
// engine's o-layer level tuple. Nil when the shard has no frames.
func (sh *shard) cutFrames() []CellFrame {
	if len(sh.frames) == 0 {
		return nil
	}
	keys, inUse := sh.keys[:0], 0
	for key, cf := range sh.frames {
		keys = append(keys, key)
		inUse += cf.frame.SlotsInUse()
	}
	slices.SortFunc(keys, cube.CompareKeys)
	sh.keys = keys
	nd := len(sh.e.oLevels)
	out := make([]CellFrame, len(keys))
	members := make([]int32, len(keys)*nd)
	recs := make([]tilt.LevelStateRec, 0, len(keys)*len(sh.e.cfg.TiltLevels))
	slots := make([]tilt.Slot, 0, inUse)
	for i, key := range keys {
		cf, f := sh.frames[key], &out[i]
		f.Levels, f.Base = sh.e.oLevels, cf.base
		f.Members = members[i*nd : (i+1)*nd : (i+1)*nd]
		copy(f.Members, key.Members[:nd])
		f.Frame, recs, slots = cf.frame.AppendState(recs, slots)
	}
	return out
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
