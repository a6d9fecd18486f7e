// Package tilt implements the paper's tilt time frame (§4.1): time is
// registered at multiple granularities, with the most recent time at the
// finest granularity and progressively older time at coarser granularity.
//
// A Frame is configured as a chain of levels (e.g. quarter → hour → day →
// month). Raw stream ticks feed an O(1) regression accumulator; whenever a
// unit at some level completes, its ISB occupies a slot at that level, and
// whenever enough units complete to fill one unit of the next level they
// are combined with the time-dimension aggregation theorem (Theorem 3.3)
// and promoted (§4.5). Slots at each level are retained in a bounded ring,
// so total state is the paper's "71 units instead of 35,136".
package tilt

import (
	"errors"
	"fmt"

	"repro/internal/regression"
)

// ErrConfig is returned for invalid frame configurations.
var ErrConfig = errors.New("tilt: invalid frame configuration")

// ErrQuery is returned for unsatisfiable queries.
var ErrQuery = errors.New("tilt: unsatisfiable query")

// Level configures one granularity of a tilt frame.
type Level struct {
	// Name labels the granularity ("quarter", "hour", ...).
	Name string
	// Multiple is the number of next-finer units composing one unit of
	// this level. For the finest level it is the number of raw stream
	// ticks per unit (e.g. 15 minutes per quarter).
	Multiple int
	// Slots is how many completed units this level retains.
	Slots int
}

// CalendarLevels returns the paper's Example 3 configuration: stream ticks
// are minutes; the frame keeps 4 quarters (15 min each), 24 hours, 31 days,
// and 12 months (a month is modelled as 31 days so the slot arithmetic
// matches the paper's 4+24+31+12 = 71 units).
func CalendarLevels() []Level {
	return []Level{
		{Name: "quarter", Multiple: 15, Slots: 4},
		{Name: "hour", Multiple: 4, Slots: 24},
		{Name: "day", Multiple: 24, Slots: 31},
		{Name: "month", Multiple: 31, Slots: 12},
	}
}

// LogarithmicLevels returns a natural tilt frame (§6 extensions): level i
// aggregates 2 units of level i−1 and retains `slots` units, so coverage
// doubles per level while state stays linear in the number of levels.
func LogarithmicLevels(levels, ticksPerUnit, slots int) []Level {
	out := make([]Level, levels)
	for i := range out {
		mult := 2
		if i == 0 {
			mult = ticksPerUnit
		}
		out[i] = Level{Name: fmt.Sprintf("log%d", i), Multiple: mult, Slots: slots}
	}
	return out
}

// Slot is one completed unit at some level: the unit's ordinal since the
// frame origin and the ISB of the regression over the unit's ticks.
type Slot struct {
	Unit int64          `json:"unit"` // 0-based unit index at this level since frame start
	ISB  regression.ISB `json:"isb"`
}

// Frame is a multi-granularity register of regression measures over an
// ever-growing time-series stream: an O(1) accumulator over the raw ticks
// of the current finest-level unit in front of a UnitFrame, which each
// completed unit's ISB is pushed to. The zero value is unusable; use New.
type Frame struct {
	start int64
	mult  int64 // raw ticks per finest-level unit
	acc   *regression.Accumulator
	ticks int64 // raw ticks consumed
	units *UnitFrame
}

// New validates the level chain and returns an empty frame whose first raw
// tick will be startTick. Each level needs Multiple ≥ 1 (≥ 2 above the
// finest to be meaningful) and Slots ≥ Multiple of the level above it so
// promotion always finds its children still resident.
func New(levels []Level, startTick int64) (*Frame, error) {
	if len(levels) > 0 && levels[0].Multiple < 1 {
		return nil, fmt.Errorf("%w: level %q multiple %d", ErrConfig, levels[0].Name, levels[0].Multiple)
	}
	units, err := NewUnitFrame(levels)
	if err != nil {
		return nil, err
	}
	return &Frame{start: startTick, mult: int64(levels[0].Multiple),
		acc: regression.NewAccumulator(startTick), units: units}, nil
}

// MustNew is New for tests and examples; it panics on error.
func MustNew(levels []Level, startTick int64) *Frame {
	f, err := New(levels, startTick)
	if err != nil {
		panic(err)
	}
	return f
}

// Levels returns the number of granularity levels.
func (f *Frame) Levels() int { return f.units.Levels() }

// LevelName returns the configured name of level i.
func (f *Frame) LevelName(i int) string { return f.units.LevelName(i) }

// Ticks returns the number of raw ticks consumed so far.
func (f *Frame) Ticks() int64 { return f.ticks }

// NextTick returns the tick the next Add must carry.
func (f *Frame) NextTick() int64 { return f.start + f.ticks }

// Add consumes the observation z at raw tick t. Ticks must be consecutive
// from the frame's start tick. Completing a finest-level unit triggers the
// §4.5 promotion cascade.
func (f *Frame) Add(t int64, z float64) error {
	if err := f.acc.Add(t, z); err != nil {
		return err
	}
	f.ticks++
	return f.pushUnit()
}

// AdvanceTo registers absent readings as zeros for every raw tick from
// NextTick up to (excluding) t, completing units and cascading promotions
// on the way — the frame-level analogue of Accumulator.AdvanceTo, and
// bit-for-bit interchangeable with calling Add(NextTick(), 0) in a loop.
// Within a unit the fill is O(1); the total cost is O(units crossed), not
// O(ticks skipped). A t at or before NextTick is a no-op.
func (f *Frame) AdvanceTo(t int64) {
	for next := f.NextTick(); t > next; next = f.NextTick() {
		step := min(t-next, f.mult-f.acc.N())
		f.acc.AdvanceTo(next + step)
		f.ticks += step
		if err := f.pushUnit(); err != nil {
			// Zero fills of whole units on the frame's own grid cannot be
			// refused.
			panic(fmt.Sprintf("tilt: advance failed: %v", err))
		}
	}
}

// pushUnit pushes the finest-level unit to the register once the
// accumulator holds all of its ticks.
func (f *Frame) pushUnit() error {
	if f.acc.N() < f.mult {
		return nil
	}
	isb, err := f.acc.Snapshot()
	if err != nil {
		return err
	}
	if err := f.units.Push(isb); err != nil {
		return err
	}
	f.acc.Reset(f.NextTick())
	return nil
}

// SlotsAt returns a copy of the completed, retained units at level i,
// oldest first.
func (f *Frame) SlotsAt(i int) []Slot { return f.units.SlotsAt(i) }

// Completed returns how many units have ever completed at level i
// (including ones already evicted).
func (f *Frame) Completed(i int) int64 { return f.units.Completed(i) }

// Query returns the regression over the last k completed units at level i,
// computed purely from stored ISBs with Theorem 3.3 — e.g. "the last hour
// with the precision of a quarter" is Query(0, 4).
func (f *Frame) Query(i, k int) (regression.ISB, error) { return f.units.Query(i, k) }

// AggregateLast combines the last k slots of one level (named for the
// error) into one regression over their combined interval (Theorem 3.3).
// A level's retained slots are always contiguous — promotion consumes a
// trailing window, eviction trims the front — so any 1 ≤ k ≤ len(slots)
// answers. Every trend read, raw frame, engine or snapshot, ends here.
func AggregateLast(name string, slots []Slot, k int) (regression.ISB, error) {
	if k <= 0 || k > len(slots) {
		return regression.ISB{}, fmt.Errorf("%w: %d units requested at level %q, %d retained",
			ErrQuery, k, name, len(slots))
	}
	tail := slots[len(slots)-k:]
	return regression.AggregateTimeFunc(k, func(j int) regression.ISB { return tail[j].ISB })
}

// Partial returns the ISB over the raw ticks of the current incomplete
// finest-level unit, and false when that unit has no points yet. This is
// the "Now" edge of Figure 4.
func (f *Frame) Partial() (regression.ISB, bool) {
	if f.acc.Empty() {
		return regression.ISB{}, false
	}
	isb, err := f.acc.Snapshot()
	if err != nil {
		return regression.ISB{}, false
	}
	return isb, true
}

// SlotCapacity returns the total number of slots the frame can hold — the
// paper's "71 units" for the calendar configuration.
func (f *Frame) SlotCapacity() int { return f.units.SlotCapacity() }

// SlotsInUse returns the number of retained completed units across levels.
func (f *Frame) SlotsInUse() int { return f.units.SlotsInUse() }

// Span returns the number of raw ticks covered by one unit of level i.
func (f *Frame) Span(i int) int64 {
	if i < 0 || i >= f.Levels() {
		return 0
	}
	span := f.mult
	for _, lv := range f.units.chain[1 : i+1] {
		span *= int64(lv.Multiple)
	}
	return span
}

// CompressionVsRaw returns the ratio between registering rawUnits units of
// the finest granularity individually and the frame's slot capacity —
// Example 3's "saving of about 495 times" with rawUnits = 366·24·4.
func (f *Frame) CompressionVsRaw(rawUnits int64) float64 {
	return float64(rawUnits) / float64(f.SlotCapacity())
}
