package stream

import (
	"fmt"

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

// FrameLevelView is one granularity of a published frame view.
type FrameLevelView struct {
	// Name labels the granularity ("quarter", "hour", ...).
	Name string
	// UnitTicks is the number of raw stream ticks per slot at this level.
	UnitTicks int64
	// Capacity is the retention bound (Config.TiltLevels[i].Slots).
	Capacity int
	// Completed counts units ever completed at this level, including
	// evicted ones.
	Completed int64
	// Slots are the retained completed units, oldest first. Slot.Unit is
	// the frame-local ordinal at this level; each slot's ISB carries the
	// exact raw-tick interval it regresses over.
	Slots []tilt.Slot
}

// FrameView is an immutable multi-granularity view of one o-cell's
// regression history, published through Snapshot.Frames. Like every other
// snapshot field it is built once at a unit boundary and never mutated, so
// readers share it freely.
type FrameView struct {
	// Base is the engine unit of the frame's first registered unit: the
	// finest-level slot with ordinal u covers engine unit Base+u.
	Base int64
	// Levels mirror Config.TiltLevels, finest first.
	Levels []FrameLevelView
}

// Query aggregates the last k retained slots at the given level into one
// regression over their combined interval (Theorem 3.3) — "the last day
// with the precision of an hour" without touching any per-tick state.
func (v *FrameView) Query(level, k int) (regression.ISB, error) {
	if level < 0 || level >= len(v.Levels) {
		return regression.ISB{}, fmt.Errorf("%w: level %d of %d", ErrRecord, level, len(v.Levels))
	}
	return trendErr(tilt.AggregateLast(v.Levels[level].Name, v.Levels[level].Slots, k))
}

// trendErr reports a frame query's failure as this package's ErrRecord.
func trendErr(isb regression.ISB, err error) (regression.ISB, error) {
	if err != nil {
		return isb, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	return isb, nil
}

// History returns the finest level as per-unit history points, frame
// ordinals mapped back to engine units.
func (v *FrameView) History() []HistoryPoint {
	pts := make([]HistoryPoint, len(v.Levels[0].Slots))
	for i, s := range v.Levels[0].Slots {
		pts[i] = HistoryPoint{Unit: v.Base + s.Unit, ISB: s.ISB}
	}
	return pts
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

// snapshotFrames copies every o-cell frame for publication. The engine
// mutates its frames in place on later units, so published snapshots must
// not share their slot arrays; the copy runs at unit boundaries only, never
// on the per-record path. The views, their levels and their slots are cut
// from one slab each — three allocations and the map, however many cells —
// which a snapshot's readers keep alive together, as they do the snapshot.
func (sh *shard) snapshotFrames() map[cube.CellKey]*FrameView {
	cfg := &sh.e.cfg
	nl := len(cfg.TiltLevels)
	slotsInUse, _ := sh.tiltSlots()
	views := make([]FrameView, len(sh.frames))
	levels := make([]FrameLevelView, 0, len(sh.frames)*nl)
	slots := make([]tilt.Slot, 0, slotsInUse)
	out := make(map[cube.CellKey]*FrameView, len(sh.frames))
	for key, cf := range sh.frames {
		v := &views[len(out)]
		v.Base = cf.base
		span := int64(cfg.TicksPerUnit)
		for i, lv := range cfg.TiltLevels {
			if i > 0 {
				span *= int64(lv.Multiple)
			}
			start := len(slots)
			slots = cf.frame.AppendSlots(slots, i)
			levels = append(levels, FrameLevelView{
				Name:      lv.Name,
				UnitTicks: span,
				Capacity:  lv.Slots,
				Completed: cf.frame.Completed(i),
				Slots:     slots[start:len(slots):len(slots)],
			})
		}
		v.Levels = levels[len(levels)-nl : len(levels) : len(levels)]
		out[key] = v
	}
	return out
}

// TiltSlots returns the total retained and maximum frame slots across all
// o-cell frames — the bounded-state invariant of §4.1: inUse never exceeds
// cells × SlotCapacity no matter how many units have flowed through.
func (e *Engine) TiltSlots() (inUse, capacity int) {
	for i := range e.shards {
		u, c := e.shards[i].tiltSlots()
		inUse, capacity = inUse+u, capacity+c
	}
	return inUse, capacity
}

// tiltSlots is TiltSlots over the shard's frames.
func (sh *shard) tiltSlots() (inUse, capacity int) {
	for _, cf := range sh.frames {
		inUse += cf.frame.SlotsInUse()
		capacity += cf.frame.SlotCapacity()
	}
	return inUse, capacity
}
