package tilt

import (
	"fmt"

	"repro/internal/regression"
)

// UnitFrame is the tilt register: a level chain fed with already-fitted
// unit ISBs — the natural register for an o-layer cell in the online
// engine (§4.5), where each completed unit's cube computation yields one
// ISB per o-cell, and the register behind Frame, which fits raw ticks
// into those units itself. Each pushed unit occupies a slot at the finest
// level, and whenever enough units complete to fill one unit of the next
// level they are combined with Theorem 3.3 and promoted.
//
// Level 0's Multiple is interpreted as 1 (each pushed ISB is one level-0
// unit).
type UnitFrame struct {
	levels    []levelState
	unitTicks int64 // ticks per pushed unit, fixed by the first push
	nextTb    int64 // required Tb of the next pushed unit
	pushed    int64
}

type levelState struct {
	cfg   Level
	slots []Slot // completed units, oldest first, len ≤ cfg.Slots
	next  int64  // index of the next unit to complete
}

// completeUnit registers a finished unit ISB at level i of a chain and
// cascades promotion when it fills a unit of level i+1.
func completeUnit(levels []levelState, i int, isb regression.ISB) {
	ls := &levels[i]
	ls.slots = append(ls.slots, Slot{Unit: ls.next, ISB: isb})
	ls.next++

	if i+1 < len(levels) {
		if mult := levels[i+1].cfg.Multiple; ls.next%int64(mult) == 0 {
			// The most recent `mult` slots are exactly the children of the
			// parent unit (Slots ≥ mult was validated at construction).
			parent, err := AggregateLast(ls.cfg.Name, ls.slots, mult)
			if err != nil {
				// Children are adjacent complete units by construction;
				// failure here indicates internal corruption.
				panic(fmt.Sprintf("tilt: promotion aggregation failed: %v", err))
			}
			completeUnit(levels, i+1, parent)
		}
	}
	// Evict beyond retention after promotion so children were available.
	if over := len(ls.slots) - ls.cfg.Slots; over > 0 {
		ls.slots = append(ls.slots[:0], ls.slots[over:]...)
	}
}

// NewUnitFrame validates the level chain. The finest level's Multiple is
// forced to 1; every level needs Slots ≥ 1, and Slots ≥ the Multiple of
// the level above it so promotion always finds its children resident.
func NewUnitFrame(levels []Level) (*UnitFrame, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("%w: no levels", ErrConfig)
	}
	f := &UnitFrame{}
	for i, lv := range levels {
		if i == 0 {
			lv.Multiple = 1
		}
		if lv.Multiple < 1 {
			return nil, fmt.Errorf("%w: level %q multiple %d", ErrConfig, lv.Name, lv.Multiple)
		}
		if lv.Slots < 1 {
			return nil, fmt.Errorf("%w: level %q slots %d", ErrConfig, lv.Name, lv.Slots)
		}
		if i+1 < len(levels) && lv.Slots < levels[i+1].Multiple {
			return nil, fmt.Errorf("%w: level %q retains %d slots but level %q needs %d children",
				ErrConfig, lv.Name, lv.Slots, levels[i+1].Name, levels[i+1].Multiple)
		}
		f.levels = append(f.levels, levelState{cfg: lv})
	}
	return f, nil
}

// Push registers the next completed unit's ISB. All units must have equal
// tick counts and be adjacent in time.
func (f *UnitFrame) Push(isb regression.ISB) error {
	n := isb.N()
	if n < 1 {
		return fmt.Errorf("%w: empty unit interval", ErrConfig)
	}
	if !isb.IsFinite() {
		return fmt.Errorf("%w: non-finite unit measure", ErrConfig)
	}
	if f.pushed == 0 {
		f.unitTicks = n
		f.nextTb = isb.Tb
	}
	if n != f.unitTicks {
		return fmt.Errorf("%w: unit has %d ticks, frame expects %d", ErrConfig, n, f.unitTicks)
	}
	if isb.Tb != f.nextTb {
		return fmt.Errorf("%w: unit starts at %d, frame expects %d", ErrConfig, isb.Tb, f.nextTb)
	}
	completeUnit(f.levels, 0, isb)
	f.nextTb = isb.Te + 1
	f.pushed++
	return nil
}

// Levels returns the number of granularity levels.
func (f *UnitFrame) Levels() int { return len(f.levels) }

// LevelName returns the configured name of level i.
func (f *UnitFrame) LevelName(i int) string { return f.levels[i].cfg.Name }

// Pushed returns how many unit ISBs have been registered.
func (f *UnitFrame) Pushed() int64 { return f.pushed }

// LastSlot returns the most recent retained completed unit at level i.
func (f *UnitFrame) LastSlot(i int) (Slot, bool) {
	if i < 0 || i >= len(f.levels) || len(f.levels[i].slots) == 0 {
		return Slot{}, false
	}
	slots := f.levels[i].slots
	return slots[len(slots)-1], true
}

// SlotsAt returns the retained completed units at level i, oldest first.
func (f *UnitFrame) SlotsAt(i int) []Slot {
	if i < 0 || i >= len(f.levels) {
		return nil
	}
	return append(make([]Slot, 0, len(f.levels[i].slots)), f.levels[i].slots...)
}

// Completed returns how many units have ever completed at level i.
func (f *UnitFrame) Completed(i int) int64 {
	if i < 0 || i >= len(f.levels) {
		return 0
	}
	return f.levels[i].next
}

// Query aggregates the last k completed units at level i (Theorem 3.3).
func (f *UnitFrame) Query(i, k int) (regression.ISB, error) {
	if i < 0 || i >= len(f.levels) {
		return regression.ISB{}, fmt.Errorf("%w: level %d of %d", ErrQuery, i, len(f.levels))
	}
	return AggregateLast(f.levels[i].cfg.Name, f.levels[i].slots, k)
}

// SlotCapacity returns the total retention across levels.
func (f *UnitFrame) SlotCapacity() int {
	var total int
	for i := range f.levels {
		total += f.levels[i].cfg.Slots
	}
	return total
}

// SlotsInUse returns the retained completed units across levels.
func (f *UnitFrame) SlotsInUse() int {
	var total int
	for i := range f.levels {
		total += len(f.levels[i].slots)
	}
	return total
}

// UnitFrameState is the serializable state of a UnitFrame — what a stream
// checkpoint stores per o-cell so tilted multi-granularity history
// survives restarts. State/RestoreUnitFrame round-trip exactly; the
// restore path validates level structure, slot ordering, and interval
// adjacency so a corrupt file cannot poison later promotions.
type UnitFrameState struct {
	UnitTicks int64           `json:"unitTicks"`
	NextTb    int64           `json:"nextTb"`
	Pushed    int64           `json:"pushed"`
	Levels    []LevelStateRec `json:"levels"`
}

// LevelStateRec is one level's retained slots and completion counter.
type LevelStateRec struct {
	Next  int64  `json:"next"`
	Slots []Slot `json:"slots"`
}

// State exports the frame's dynamic state for checkpointing.
func (f *UnitFrame) State() UnitFrameState {
	st, _, _ := f.AppendState(nil, nil)
	return st
}

// AppendState is State cut into the caller's slabs: the level records are
// appended to recs and every level's slots to slots, and the returned
// state's slices alias what was appended (capacity-clipped, so appending
// to one never reaches its neighbour; a level without slots has nil). A
// unit close cuts hundreds of frames into two slices this way instead of
// five allocations each.
func (f *UnitFrame) AppendState(recs []LevelStateRec, slots []Slot) (UnitFrameState, []LevelStateRec, []Slot) {
	st := UnitFrameState{UnitTicks: f.unitTicks, NextTb: f.nextTb, Pushed: f.pushed}
	first := len(recs)
	for i := range f.levels {
		ls := &f.levels[i]
		rec := LevelStateRec{Next: ls.next}
		if len(ls.slots) > 0 {
			start := len(slots)
			slots = append(slots, ls.slots...)
			rec.Slots = slots[start:len(slots):len(slots)]
		}
		recs = append(recs, rec)
	}
	st.Levels = recs[first:len(recs):len(recs)]
	return st, recs, slots
}

// RestoreUnitFrame rebuilds a frame from a checkpointed state against the
// same level chain it was configured with (CheckState).
func RestoreUnitFrame(levels []Level, st UnitFrameState) (*UnitFrame, error) {
	f, err := NewUnitFrame(levels)
	if err != nil {
		return nil, err
	}
	if err := CheckState(levels, &st); err != nil {
		return nil, err
	}
	for i := range f.levels {
		f.levels[i].slots = append([]Slot(nil), st.Levels[i].Slots...)
		f.levels[i].next = st.Levels[i].Next
	}
	f.unitTicks = st.UnitTicks
	f.nextTb = st.NextTb
	f.pushed = st.Pushed
	return f, nil
}

// CheckState reports whether st is a state a frame over the (valid) level
// chain levels can be in: one level record per level, completion counters
// that add up through the multiples, at most each level's retention,
// slots numbered consecutively up to the counter, finite, each spanning
// its level's ticks and adjacent to the one before, and the next unit
// starting where the finest level ends. It allocates nothing unless it
// fails.
func CheckState(levels []Level, st *UnitFrameState) error {
	if len(levels) == 0 || len(st.Levels) != len(levels) {
		return fmt.Errorf("%w: restore: state has %d levels, frame %d",
			ErrConfig, len(st.Levels), len(levels))
	}
	if st.Pushed < 0 || (st.Pushed > 0 && st.UnitTicks < 1) {
		return fmt.Errorf("%w: restore: pushed %d units of %d ticks", ErrConfig, st.Pushed, st.UnitTicks)
	}
	if st.Levels[0].Next != st.Pushed {
		return fmt.Errorf("%w: restore: %d pushed units but %d finest completions",
			ErrConfig, st.Pushed, st.Levels[0].Next)
	}
	span := int64(1)
	for i, lv := range levels {
		rec := &st.Levels[i]
		if i > 0 {
			span *= int64(lv.Multiple)
			if want := st.Levels[i-1].Next / int64(lv.Multiple); rec.Next != want {
				return fmt.Errorf("%w: restore: level %q completed %d units, want %d",
					ErrConfig, lv.Name, rec.Next, want)
			}
		}
		if rec.Next < int64(len(rec.Slots)) || len(rec.Slots) > lv.Slots {
			return fmt.Errorf("%w: restore: level %q retains %d slots of %d completed (cap %d)",
				ErrConfig, lv.Name, len(rec.Slots), rec.Next, lv.Slots)
		}
		for j, s := range rec.Slots {
			if want := rec.Next - int64(len(rec.Slots)) + int64(j); s.Unit != want {
				return fmt.Errorf("%w: restore: level %q slot %d is unit %d, want %d",
					ErrConfig, lv.Name, j, s.Unit, want)
			}
			if !s.ISB.IsFinite() {
				return fmt.Errorf("%w: restore: level %q unit %d has non-finite measure",
					ErrConfig, lv.Name, s.Unit)
			}
			if n := s.ISB.N(); n != span*st.UnitTicks {
				return fmt.Errorf("%w: restore: level %q unit %d spans %d ticks, want %d",
					ErrConfig, lv.Name, s.Unit, n, span*st.UnitTicks)
			}
			if j > 0 && s.ISB.Tb != rec.Slots[j-1].ISB.Te+1 {
				return fmt.Errorf("%w: restore: level %q units %d and %d are not adjacent",
					ErrConfig, lv.Name, rec.Slots[j-1].Unit, s.Unit)
			}
		}
	}
	if n := len(st.Levels[0].Slots); n > 0 {
		if last := st.Levels[0].Slots[n-1]; last.ISB.Te+1 != st.NextTb {
			return fmt.Errorf("%w: restore: next unit starts at %d, last finest unit ends at %d",
				ErrConfig, st.NextTb, last.ISB.Te)
		}
	}
	return nil
}
