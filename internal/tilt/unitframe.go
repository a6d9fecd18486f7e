package tilt

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/regression"
)

// UnitFrame is a tilt register: a level chain fed with already-fitted unit
// ISBs — the form behind Frame, which fits raw ticks into those units
// itself. Each pushed unit occupies a slot at the finest level, and
// whenever enough units complete to fill one unit of the next level they
// are combined with Theorem 3.3 and promoted. The frame is its chain and
// its current record (UnitFrameState), which every push replaces with the
// record's successor.
//
// Level 0's Multiple is interpreted as 1 (each pushed ISB is one level-0
// unit).
type UnitFrame struct {
	chain []Level
	st    UnitFrameState
}

// NewUnitFrame validates the level chain. The finest level's Multiple is
// ignored; every level needs Slots ≥ 1, and Slots ≥ the Multiple of the
// level above it so promotion always finds its children resident, and one
// unit of the coarsest level must span at most math.MaxInt64 finest units.
func NewUnitFrame(levels []Level) (*UnitFrame, error) {
	if err := checkChain(levels); err != nil {
		return nil, err
	}
	return &UnitFrame{chain: slices.Clone(levels), st: UnitFrameState{Levels: make([]LevelStateRec, len(levels))}}, nil
}

// checkChain is NewUnitFrame's check of a level chain.
func checkChain(levels []Level) error {
	if len(levels) == 0 {
		return fmt.Errorf("%w: no levels", ErrConfig)
	}
	span := int64(1)
	for i, lv := range levels {
		if i > 0 {
			if lv.Multiple < 1 {
				return fmt.Errorf("%w: level %q multiple %d", ErrConfig, lv.Name, lv.Multiple)
			}
			if span > math.MaxInt64/int64(lv.Multiple) {
				return fmt.Errorf("%w: a unit of level %q spans more than %d finest units",
					ErrConfig, lv.Name, int64(math.MaxInt64))
			}
			span *= int64(lv.Multiple)
		}
		if lv.Slots < 1 {
			return fmt.Errorf("%w: level %q slots %d", ErrConfig, lv.Name, lv.Slots)
		}
		if i+1 < len(levels) && lv.Slots < levels[i+1].Multiple {
			return fmt.Errorf("%w: level %q retains %d slots but level %q needs %d children",
				ErrConfig, lv.Name, lv.Slots, levels[i+1].Name, levels[i+1].Multiple)
		}
	}
	return nil
}

// Push registers the next completed unit's ISB. All units must have equal
// tick counts and be adjacent in time.
func (f *UnitFrame) Push(isb regression.ISB) error {
	st, err := f.st.Push(f.chain, isb, nil)
	if err != nil {
		return err
	}
	f.st = st
	return nil
}

// Levels returns the number of granularity levels.
func (f *UnitFrame) Levels() int { return len(f.chain) }

// LevelName returns the configured name of level i.
func (f *UnitFrame) LevelName(i int) string { return f.chain[i].Name }

// SlotsAt returns the retained completed units at level i, oldest first.
func (f *UnitFrame) SlotsAt(i int) []Slot {
	if i < 0 || i >= len(f.chain) {
		return nil
	}
	return slices.Clone(f.st.Levels[i].Slots)
}

// Completed returns how many units have ever completed at level i.
func (f *UnitFrame) Completed(i int) int64 {
	if i < 0 || i >= len(f.chain) {
		return 0
	}
	return f.st.Levels[i].Next
}

// Query aggregates the last k completed units at level i (Theorem 3.3).
func (f *UnitFrame) Query(i, k int) (regression.ISB, error) {
	if i < 0 || i >= len(f.chain) {
		return regression.ISB{}, fmt.Errorf("%w: level %d of %d", ErrQuery, i, len(f.chain))
	}
	return AggregateLast(f.chain[i].Name, f.st.Levels[i].Slots, k)
}

// SlotCapacity returns the total retention across levels.
func (f *UnitFrame) SlotCapacity() int {
	var total int
	for _, lv := range f.chain {
		total += lv.Slots
	}
	return total
}

// SlotsInUse returns the retained completed units across levels.
func (f *UnitFrame) SlotsInUse() int {
	var total int
	for _, lv := range f.st.Levels {
		total += len(lv.Slots)
	}
	return total
}

// UnitFrameState is the record of a frame's state: what a stream
// checkpoint stores and a snapshot publishes per o-cell, and what a push
// replaces with its successor (Push). A record is never written once it is
// made, so any number of readers may hold it while its successors are
// pushed. CheckState validates level structure, slot ordering and
// interval adjacency, so a corrupt file cannot poison later promotions.
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

// Push returns the record that follows st, a state of the valid level
// chain (the zero record has registered nothing), once the next unit's ISB
// is registered: units have equal tick counts and are adjacent in time.
// Levels the unit did not complete share st's Slots; one it completed
// appends past st's window where the backing has room, else append grows a
// new one, so st reads as before — but push a record at most once, as two
// successors would share the slot past its window. levels, when it has
// one record per level and no record holds it, becomes the successor's
// Levels; otherwise they are allocated.
func (st UnitFrameState) Push(chain []Level, isb regression.ISB, levels []LevelStateRec) (UnitFrameState, error) {
	n := isb.N()
	if n < 1 {
		return st, fmt.Errorf("%w: empty unit interval", ErrConfig)
	}
	if !isb.IsFinite() {
		return st, fmt.Errorf("%w: non-finite unit measure", ErrConfig)
	}
	if len(st.Levels) != 0 && len(st.Levels) != len(chain) {
		return st, fmt.Errorf("%w: state has %d levels, chain %d", ErrConfig, len(st.Levels), len(chain))
	}
	if st.Pushed == 0 {
		st.UnitTicks, st.NextTb = n, isb.Tb
	}
	if n != st.UnitTicks {
		return st, fmt.Errorf("%w: unit has %d ticks, frame expects %d", ErrConfig, n, st.UnitTicks)
	}
	if isb.Tb != st.NextTb {
		return st, fmt.Errorf("%w: unit starts at %d, frame expects %d", ErrConfig, isb.Tb, st.NextTb)
	}
	if len(levels) != len(chain) {
		levels = make([]LevelStateRec, len(chain))
	} else if len(st.Levels) == 0 {
		clear(levels)
	}
	copy(levels, st.Levels)
	complete(chain, levels, 0, isb)
	st.Levels = levels
	st.NextTb = isb.Te + 1
	st.Pushed++
	return st, nil
}

// complete registers a finished unit ISB at level i of a successor's level
// records and cascades promotion when it fills a unit of level i+1.
func complete(chain []Level, levels []LevelStateRec, i int, isb regression.ISB) {
	lv := &levels[i]
	slots := append(lv.Slots, Slot{Unit: lv.Next, ISB: isb})
	lv.Next++
	if i+1 < len(levels) {
		if mult := chain[i+1].Multiple; lv.Next%int64(mult) == 0 {
			// The most recent `mult` slots are exactly the children of the
			// parent unit (Slots ≥ mult was validated with the chain).
			parent, err := AggregateLast(chain[i].Name, slots, mult)
			if err != nil {
				// Children are adjacent complete units by construction;
				// failure here indicates internal corruption.
				panic(fmt.Sprintf("tilt: promotion aggregation failed: %v", err))
			}
			complete(chain, levels, i+1, parent)
		}
	}
	// Evict beyond retention after promotion so children were available.
	if over := len(slots) - chain[i].Slots; over > 0 {
		slots = slots[over:]
	}
	lv.Slots = slots
}

// State returns the frame's current record, which later pushes leave as
// it is.
func (f *UnitFrame) State() UnitFrameState { return f.st }

// RestoreUnitFrame adopts a checkpointed record as a frame's state against
// the same level chain it was configured with (CheckState). The frame
// keeps the record's slots; each level's capacity is clipped, so the
// frame's first push at that level copies instead of writing past them.
func RestoreUnitFrame(levels []Level, st UnitFrameState) (*UnitFrame, error) {
	f, err := NewUnitFrame(levels)
	if err != nil {
		return nil, err
	}
	if err := CheckState(levels, &st); err != nil {
		return nil, err
	}
	for i, lv := range st.Levels {
		f.st.Levels[i] = LevelStateRec{Next: lv.Next, Slots: slices.Clip(lv.Slots)}
	}
	st.Levels = f.st.Levels
	f.st = st
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
