// Package stream implements the paper's on-line operation (§4.5): raw
// stream records accumulate per m-layer cell in O(1) regression
// accumulators; each completed tilt-frame unit (e.g. a quarter of an hour)
// triggers a cube computation over the unit's m-layer ISBs with m/o H-cubing
// (the paper's Algorithm 1, the one that finds every exception cell the
// query API serves), produces o-layer observation alerts, and
// registers each o-cell's regression in its tilt time frame (§4.1) for
// multi-granularity trend queries. "Although the stream data flows
// in-and-out, regression always keeps up to the most recent granularity
// time unit at each layer."
package stream

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/tilt"
	"repro/internal/timeseries"
)

// ErrConfig is returned for invalid engine configurations.
var ErrConfig = errors.New("stream: invalid configuration")

// ErrRecord is returned for unusable records.
var ErrRecord = errors.New("stream: invalid record")

// Config configures the online engine.
type Config struct {
	Schema *cube.Schema
	// TicksPerUnit is the number of raw stream ticks per finest tilt-frame
	// unit (15 for minute data with quarter units).
	TicksPerUnit int
	// StartTick is the tick of the first expected record (default 0).
	StartTick int64
	// Threshold drives exception detection at every layer.
	Threshold exception.Thresholder
	// TiltLevels is the level chain of every o-cell's tilt time frame
	// (§4.1), the cell's one history register: each closed unit's o-layer
	// ISBs are promoted through the chain (tilt.UnitFrame), so trend
	// queries reach far into the past at progressively coarser granularity
	// while per-cell state stays bounded by the chain's slot capacity — the
	// paper's "71 units instead of 35,136". tilt.CalendarLevels() is the
	// natural chain when a unit is a quarter-hour; the finest level's
	// Multiple is ignored (each engine unit is one finest frame unit).
	// Empty means the one-level chain {unit, 1, 64}: the last 64 units at
	// unit granularity and nothing coarser.
	TiltLevels []tilt.Level
	// Delta, when set, also raises change alerts comparing each o-cell's
	// slope against its previous unit ("current quarter vs. the last").
	Delta *exception.Delta
	// PublishSnapshots makes the engine publish an immutable Snapshot at
	// every unit boundary for lock-free concurrent readers (the serving
	// layer). Costs one frame copy per closed unit — nothing on the
	// per-record path — and is off by default so pure-ingest pipelines pay
	// zero.
	PublishSnapshots bool
}

// AlertKind distinguishes alert causes.
type AlertKind int

// Alert causes.
const (
	// SlopeException fires when an o-cell's slope magnitude passes the
	// threshold.
	SlopeException AlertKind = iota
	// SlopeChange fires when an o-cell's slope moved more than the Delta
	// detector allows between consecutive units.
	SlopeChange
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case SlopeException:
		return "slope-exception"
	case SlopeChange:
		return "slope-change"
	default:
		return fmt.Sprintf("AlertKind(%d)", int(k))
	}
}

// Alert is one o-layer observation the analyst would act on, with the
// exception descendants ("supporters") found below the cell by the
// exception-guided drill.
type Alert struct {
	Unit int64
	Kind AlertKind
	Cell cube.CellKey
	ISB  regression.ISB
	// Drill lists the retained exception cells that roll up to this o-cell
	// (the cell itself excluded), in cube.CompareKeys order.
	Drill []core.Cell
}

// UnitResult is the outcome of one completed unit.
type UnitResult struct {
	Unit     int64
	Interval timeseries.Interval
	// Result is the cube computation outcome; nil for units that closed
	// with no data at all.
	Result *core.Result
	Alerts []Alert
}

// Engine is the online analyzer over one partition of the stream: the
// worker behind every shard of a ShardedEngine (which is what the runtime
// constructs, at every shard count), and — used directly, over the whole
// stream — the reference the sharded == single property tests and the
// benchmark oracle compare against. Not safe for concurrent use; confine
// it to one goroutine (share memory by communicating).
type Engine struct {
	cfg Config
	// anc resolves roll-ups to the o-layer when a closed unit's supporter
	// index is built.
	anc  *cube.AncestorIndex
	unit int64 // index of the current (open) unit
	// openStart/openEnd cache the open unit's tick bounds
	// [openStart, openEnd), so the per-record boundary tests are single
	// comparisons.
	openStart int64
	openEnd   int64
	// layout codes m-cells. slab[o] is the accumulator of the open unit's
	// cell with ordinal o and codes[o] its code, sized by the unit's active
	// cells and emptied at every close. dict numbers the cells of an engine
	// that reads its own records; a ShardedEngine's shards have none, the
	// coordinator's dictionary numbers theirs and fills their slabs.
	layout cellLayout
	dict   *cellDict
	slab   []regression.Accumulator
	codes  []uint64
	// frames holds every o-cell's history: one tilt frame per cell seen so
	// far, its finest level the per-unit history.
	frames    map[cube.CellKey]*cellFrame
	unitsDone int64
	// inputs/members hold each closed unit's m-layer batch, reused from
	// close to close: nothing the cube returns aliases them.
	inputs  []core.Input
	members []int32
	// ws is what m/o-cubing keeps from one unit's close to the next.
	ws *core.Workspace
	// shape fingerprints cfg.Schema in every checkpoint; cpBuf is where the
	// owning ShardedEngine has this engine cut them (AppendCheckpoint).
	shape []DimensionShape
	cpBuf checkpointBuf
	// snap is the published per-unit snapshot (PublishSnapshots); readers
	// load it without locks, so it must only ever hold fully built,
	// never-again-mutated values. bus broadcasts the same values push-side
	// to subscribers (Subscribe).
	snap atomic.Pointer[Snapshot]
	bus  snapBus
	// walSeq is the WAL watermark the owner stamps before checkpointing:
	// how many log records this engine's state reflects. The engine never
	// advances it itself — counting durable records is the log owner's job
	// (replayed records and live records both count, appended-but-not-yet-
	// ingested ones don't).
	walSeq int64
}

// NewEngine validates the config and returns an engine expecting its first
// record at StartTick.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrConfig)
	}
	if cfg.TicksPerUnit < 1 {
		return nil, fmt.Errorf("%w: ticks per unit %d", ErrConfig, cfg.TicksPerUnit)
	}
	if cfg.Threshold == nil {
		return nil, fmt.Errorf("%w: nil thresholder", ErrConfig)
	}
	layout, err := newCellLayout(cfg.Schema)
	if err != nil {
		return nil, err
	}
	if len(cfg.TiltLevels) == 0 {
		cfg.TiltLevels = []tilt.Level{{Name: "unit", Multiple: 1, Slots: 64}}
	}
	// Validate the level chain once; per-cell frames are built lazily.
	if _, err := tilt.NewUnitFrame(cfg.TiltLevels); err != nil {
		return nil, fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
	}
	e := &Engine{
		cfg:       cfg,
		anc:       cube.NewAncestorIndex(cfg.Schema),
		ws:        core.NewWorkspace(cfg.Schema),
		shape:     shapeOf(cfg.Schema),
		openStart: cfg.StartTick,
		openEnd:   cfg.StartTick + int64(cfg.TicksPerUnit),
		frames:    make(map[cube.CellKey]*cellFrame),
		layout:    layout,
	}
	e.dict = newCellDict(&e.layout, nil)
	return e, nil
}

// Unit returns the index of the currently open unit.
func (e *Engine) Unit() int64 { return e.unit }

// UnitsDone returns how many units have been closed.
func (e *Engine) UnitsDone() int64 { return e.unitsDone }

// ActiveCells returns the number of m-layer cells with data in the open
// unit.
func (e *Engine) ActiveCells() int { return len(e.slab) }

// WALSeq returns the WAL watermark: the count of write-ahead-log records
// this engine's state reflects (zero when no WAL is in use).
func (e *Engine) WALSeq() int64 { return e.walSeq }

// SetWALSeq stamps the WAL watermark. The log owner calls it after
// ingesting records it has durably appended, so the next Checkpoint
// records exactly which log prefix the state covers; recovery then
// replays records [WALSeq, end) and nothing else.
func (e *Engine) SetWALSeq(seq int64) { e.walSeq = seq }

func (e *Engine) unitStart(u int64) int64 {
	return e.cfg.StartTick + u*int64(e.cfg.TicksPerUnit)
}

// Ingest consumes one record. Records may skip ticks (absent readings
// count as zero usage — and so does a whole absent unit: an o-cell with no
// reading in a closed unit registers a zero regression over it, see
// recordTilt) and may open new cells mid-unit, but each cell's ticks must
// be non-decreasing and at most one reading per tick. Crossing a unit
// boundary closes earlier units; their results are returned in order
// (units that received no data yield a UnitResult with a nil Result).
func (e *Engine) Ingest(members []int32, tick int64, value float64) ([]*UnitResult, error) {
	if len(members) != e.layout.nd {
		return nil, fmt.Errorf("%w: %d members for %d dimensions", ErrRecord, len(members), e.layout.nd)
	}
	var closed []*UnitResult
	if tick < e.openStart || tick >= e.openEnd {
		var err error
		if closed, err = e.reach(tick, nil); err != nil {
			return closed, err
		}
	}
	code, bad := e.layout.code(members)
	if bad >= 0 {
		return closed, e.layout.rangeErr(bad, members[bad])
	}
	c := e.dict.slot(code) // ingestRun's step, for one record
	if c.key == 0 {
		c = e.dict.add(c, code)
		e.open(code)
	}
	if acc := &e.slab[c.ord]; !acc.Observe(tick, value) {
		return closed, e.refuse(acc, tick, value)
	}
	return closed, nil
}

// reach makes tick's unit the open one, appending the units it closes to
// closed; a tick before the open unit is ErrRecord.
func (e *Engine) reach(tick int64, closed []*UnitResult) ([]*UnitResult, error) {
	if tick < e.openStart {
		return closed, fmt.Errorf("%w: tick %d before open unit start %d", ErrRecord, tick, e.openStart)
	}
	for tick >= e.openEnd {
		ur, err := e.closeUnit()
		if err != nil {
			return closed, err
		}
		closed = append(closed, ur)
	}
	return closed, nil
}

// open appends a new cell's accumulator to the slab, at the next ordinal.
func (e *Engine) open(code uint64) {
	e.slab = append(e.slab, *regression.NewAccumulator(e.openStart))
	e.codes = append(e.codes, code)
}

// refuse names why a record failed the inline step every ingest path
// takes (Accumulator.Observe): a tick outside the open unit, one its cell
// already consumed, or a non-finite value.
func (e *Engine) refuse(acc *regression.Accumulator, tick int64, value float64) error {
	if tick < e.openStart || tick >= e.openEnd {
		return fmt.Errorf("%w: tick %d outside open unit [%d,%d)", ErrRecord, tick, e.openStart, e.openEnd)
	}
	if tick < acc.NextTick() {
		return fmt.Errorf("%w: tick %d already consumed for cell (next %d)", ErrRecord, tick, acc.NextTick())
	}
	return acc.Add(tick, value)
}

// Flush closes the currently open unit even if it is mid-way: every active
// cell is zero-padded to the unit boundary first. Returns the unit's
// result (nil Result when no cell had data).
func (e *Engine) Flush() (*UnitResult, error) {
	return e.closeUnit()
}

// AdvanceTo closes units in order until `unit` is the open unit, as if a
// record at unit's first tick had arrived. It is how a coordinator (a
// ShardedEngine, or a wall-clock driver with sparse data) forces engines
// past boundaries without a record; already being at or past `unit` is a
// no-op.
func (e *Engine) AdvanceTo(unit int64) ([]*UnitResult, error) {
	if unit <= e.unit {
		return nil, nil
	}
	return e.reach(e.unitStart(unit), nil)
}

func (e *Engine) closeUnit() (*UnitResult, error) {
	lo := e.unitStart(e.unit)
	hi := e.unitStart(e.unit+1) - 1
	ur := &UnitResult{Unit: e.unit, Interval: timeseries.Interval{Tb: lo, Te: hi}}

	// Member tuples are decoded into the arena, so the slab empties at once.
	nd := e.layout.nd
	inputs := e.inputs[:0]
	if inputs == nil {
		inputs = make([]core.Input, 0, len(e.slab))
	}
	arena := e.members[:0]
	for o := range e.slab {
		acc := &e.slab[o]
		acc.AdvanceTo(hi + 1) // zero-pad to the unit boundary, in O(1)
		isb, err := acc.Snapshot()
		if err != nil {
			return nil, err
		}
		start := len(arena)
		arena = slices.Grow(arena, nd)[:start+nd]
		e.layout.decode(e.codes[o], arena[start:])
		inputs = append(inputs, core.Input{Members: arena[start:len(arena):len(arena)], Measure: isb})
	}
	// Stream data flows in-and-out: the ordinals go with the unit. A slab
	// far larger than this unit needed is dropped, so one bursty unit
	// cannot pin its peak footprint forever.
	if bound := 4*len(inputs) + 1024; cap(e.slab) > bound {
		e.slab, e.codes = nil, nil
	}
	e.slab, e.codes = e.slab[:0], e.codes[:0]
	e.dict.reset()
	if bound := 4*len(inputs) + 1024; cap(inputs) > bound {
		inputs = append(make([]core.Input, 0, bound), inputs...)
		// The arena's contents are reached only through inputs' Members
		// (which keep the old backing alive for this unit); only the
		// stored capacity matters for the next reuse.
		arena = make([]int32, 0, bound*nd)
	}
	e.inputs, e.members = inputs, arena
	// Canonical member order: cubing accumulates floats in input order, so
	// sorting here makes every unit result bitwise reproducible across runs
	// and identical between sharded and single-engine computation.
	slices.SortFunc(inputs, func(a, b core.Input) int {
		return slices.Compare(a.Members, b.Members)
	})
	e.unit++
	e.openStart = e.openEnd
	e.openEnd += int64(e.cfg.TicksPerUnit)

	if len(inputs) == 0 {
		return e.finishUnit(ur)
	}
	res, err := e.ws.MOCubing(inputs, e.cfg.Threshold)
	if err != nil {
		return nil, err
	}
	ur.Result = res
	ur.Alerts = e.raiseAlerts(ur, res)
	return e.finishUnit(ur)
}

// finishUnit registers the closed unit (data or none) with every o-cell
// frame, counts it and publishes its snapshot.
func (e *Engine) finishUnit(ur *UnitResult) (*UnitResult, error) {
	if err := e.recordTilt(ur); err != nil {
		return nil, err
	}
	e.unitsDone++
	if e.cfg.PublishSnapshots {
		e.publishSnapshot(ur)
	}
	return ur, nil
}

// raiseAlerts returns the unit's alerts in canonical order (compareAlerts).
// The supporter index is built on the first alerting o-cell, so a unit
// whose observation deck is quiet never scans its exception cells.
func (e *Engine) raiseAlerts(ur *UnitResult, res *core.Result) []Alert {
	var alerts []Alert
	var supporters map[cube.CellKey][]core.Cell
	oThr := e.cfg.Threshold.Threshold(e.cfg.Schema.OLayer())
	for key, isb := range res.OLayer {
		if exception.IsException(isb, oThr) {
			if supporters == nil {
				supporters = core.SupportersByOCell(e.anc, res)
			}
			alerts = append(alerts, Alert{
				Unit:  ur.Unit,
				Kind:  SlopeException,
				Cell:  key,
				ISB:   isb,
				Drill: supporters[key],
			})
		}
		if e.cfg.Delta != nil {
			if cf := e.frames[key]; cf != nil {
				// The frame's last slot is always the previous unit: a unit
				// the cell sat out was registered as a zero regression.
				if last, ok := cf.frame.LastSlot(0); ok && e.cfg.Delta.Exceptional(isb, last.ISB, true) {
					alerts = append(alerts, Alert{Unit: ur.Unit, Kind: SlopeChange, Cell: key, ISB: isb})
				}
			}
		}
	}
	slices.SortFunc(alerts, compareAlerts)
	return alerts
}

// TrendQuery aggregates the last k units of an o-cell's history — the
// finest level of its frame, retaining TiltLevels[0].Slots units — into one
// regression over the combined interval (Theorem 3.3). It fails when fewer
// than k units are retained.
func (e *Engine) TrendQuery(cell cube.CellKey, k int) (regression.ISB, error) {
	return e.TrendQueryAt(cell, 0, k)
}

// HistoryLen returns how many units of history an o-cell currently has at
// the finest granularity.
func (e *Engine) HistoryLen(cell cube.CellKey) int {
	if cf := e.frames[cell]; cf != nil {
		return cf.frame.SlotsLen(0)
	}
	return 0
}
