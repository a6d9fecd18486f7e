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
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// ErrConfig is returned for invalid engine configurations.
var ErrConfig = errors.New("stream: invalid configuration")

// ErrRecord is returned for unusable records.
var ErrRecord = errors.New("stream: invalid record")

// Config configures the online engine.
type Config struct {
	Schema *cube.Schema
	// TicksPerUnit is the number of raw stream ticks per finest tilt-frame
	// unit (15 for minute data with quarter units). It is an int, so a
	// 32-bit build caps a unit at 2³¹−1 ticks (about 24.8 days of
	// millisecond ticks); wider units need a 64-bit build.
	TicksPerUnit int
	// StartTick is the tick of the first expected record (default 0).
	StartTick int64
	// Threshold drives exception detection at every layer.
	Threshold exception.Thresholder
	// TiltLevels is the level chain of every o-cell's tilt time frame
	// (§4.1), the cell's one history register: each closed unit's o-layer
	// ISBs are promoted through the chain (tilt.UnitFrameState.Push), so
	// trend queries reach far into the past at progressively coarser
	// granularity while per-cell state stays bounded by the chain's slot
	// capacity — the paper's "71 units instead of 35,136".
	// tilt.CalendarLevels() is the natural chain when a unit is a
	// quarter-hour; the finest level's Multiple is ignored (each engine
	// unit is one finest frame unit). Empty means the one-level chain
	// {unit, 1, 64}: the last 64 units at unit granularity and nothing
	// coarser.
	TiltLevels []tilt.Level
	// Delta, when set, also raises change alerts comparing each o-cell's
	// slope against its previous unit ("current quarter vs. the last").
	Delta *exception.Delta
	// PublishSnapshots makes the engine also store the Snapshot each
	// closed unit returns, for lock-free concurrent readers (the serving
	// layer), and signal it (Published). It costs nothing on the
	// per-record path and is off by default.
	PublishSnapshots bool
	// Shards is how many partitions the engine closes its units across in
	// parallel (§6); 0 means 1. Results, snapshots and checkpoints do not
	// depend on it.
	Shards int
}

func (c *Config) unitStart(u int64) int64 {
	return c.StartTick + u*int64(c.TicksPerUnit)
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

// Alert is one o-layer observation the analyst would act on: the o-cell
// and its regression. A slope exception's supporters, the exception cells
// below it, are its unit result's (core.Result.Supporters).
type Alert struct {
	Unit int64
	Kind AlertKind
	Cell cube.CellKey
	ISB  regression.ISB
}

// Engine is the online analyzer (§4.5), at every shard count. Its
// coordinator — the caller's goroutine — accumulates every record; its
// shards, the partitions, close their units in parallel.
//
// The partition function is the m-layer cell's o-layer ancestor: every
// record hashes by the o-level member tuple its members roll up to. Because
// roll-up is per-dimension hierarchical, all m-cells below one o-cell — and
// therefore every cell of every cuboid between the critical layers that
// aggregates them — live in exactly one shard. Per-shard cube results are
// disjoint and union to precisely the one-shard result: the merged o-layer,
// exception sets, drill-downs and per-o-cell frames are identical (bitwise,
// thanks to the canonical aggregation order) at every shard count, alert
// order (unit, then cube.CompareKeys on the cell, then kind) included.
//
// Ingest is one loop on the caller's goroutine: the coordinator codes a
// record's m-cell, its cell dictionary gives the cell's shard and ordinal
// there, and the record's accumulator step runs on that shard's slab before
// Ingest or IngestBatch returns. Checkpoint cuts and Restore visit the
// shards in turn on the caller's goroutine too. The engine starts no
// goroutine of its own but at a unit close: a record crossing the open
// unit's end closes the finished units on every shard in parallel — shard
// 0 on the caller, every other shard on a goroutine that ends with the
// close — waits for them, and merges the shards' snapshots of each unit
// (MergeSnapshots).
//
// An Engine's methods must be called from one goroutine, except Snapshot,
// Published and CellsActive. A record error comes back from the
// call that carried the record. A refused accumulator step (a tick its cell
// already consumed, a non-finite value), a close error and a Restore refused
// half-way through the shards stick: they fail every later call until
// Restore replaces the state. An out-of-range
// member or a tick before the open unit is refused before any record of its
// run is ingested, and does not stick.
type Engine struct {
	cfg    Config
	shards []shard
	// part is the o-ancestor partition function the multi-node router
	// (internal/cluster) shares, so shards and nodes route identically; its
	// layout codes m-cells. dict is the cell dictionary: it routes cells
	// through part and numbers each shard's cells (one shard has nothing to
	// route). cellsActive is its size when the last barrier emptied it.
	part        *Partitioner
	dict        *cellDict
	cellsActive atomic.Int64
	// shape fingerprints cfg.Schema in every checkpoint; oLevels is the
	// o-layer's level tuple, which every frame record shares.
	shape   []DimensionShape
	oLevels []int
	unit    int64 // index of the current (open) unit
	// openStart/openEnd cache the open unit's tick bounds
	// [openStart, openEnd), so the per-record boundary tests are single
	// comparisons.
	openStart int64
	openEnd   int64
	unitsDone int64
	// walSeq is the WAL watermark the owner stamps before checkpointing:
	// how many log records this engine's state reflects. The engine never
	// advances it itself — counting durable records is the log owner's job
	// (replayed records and live records both count, appended-but-not-yet-
	// ingested ones don't).
	walSeq int64
	err    error
	closed bool
	// snap is the published per-unit snapshot (PublishSnapshots), merged
	// over the shards; readers load it without locks, so it must only ever
	// hold fully built, never-again-mutated values. published is the
	// channel the next publish closes (Published).
	snap      atomic.Pointer[Snapshot]
	published atomic.Pointer[chan struct{}]
	// frames is every o-cell's frame record in coordinate order, the
	// shards' lists as the last close or Restore left them, merged: the
	// snapshot's Frames and the checkpoint's Tilt. cp is the checkpoint
	// AppendCheckpoint assembles, cuts the shards' cuts it merges.
	frames []CellFrame
	cp     Checkpoint
	cuts   [][]CellState
	// origin is every snapshot's Origin until the next Restore.
	origin uint64
}

// NewEngine validates the config and returns an engine of cfg.Shards
// partitions expecting its first record at StartTick. It starts no
// goroutine; Flush closes the final partial unit.
// Parallelism is bounded by the number of distinct o-layer cells: a schema
// whose o-layer is the apex cuboid has a single partition and degrades to
// one busy shard.
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
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: %d shards", ErrConfig, cfg.Shards)
	}
	cfg.Shards = max(cfg.Shards, 1)
	if len(cfg.TiltLevels) == 0 {
		cfg.TiltLevels = []tilt.Level{{Name: "unit", Multiple: 1, Slots: 64}}
	}
	// Every snapshot shares the chain.
	cfg.TiltLevels = slices.Clone(cfg.TiltLevels)
	// Validate the level chain once; per-cell frames are built lazily.
	if _, err := tilt.NewUnitFrame(cfg.TiltLevels); err != nil {
		return nil, fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
	}
	part, err := NewPartitioner(cfg.Schema, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		shards:    make([]shard, cfg.Shards),
		part:      part,
		shape:     shapeOf(cfg.Schema),
		openStart: cfg.StartTick,
		openEnd:   cfg.StartTick + int64(cfg.TicksPerUnit),
		origin:    newOrigin(),
	}
	for _, dim := range cfg.Schema.Dims {
		e.oLevels = append(e.oLevels, dim.OLevel)
	}
	signal := make(chan struct{})
	e.published.Store(&signal)
	e.dict = e.newDict()
	for i := range e.shards {
		e.shards[i].e, e.shards[i].ws = e, core.NewWorkspace(cfg.Schema)
	}
	return e, nil
}

// newDict returns an empty cell dictionary: one that routes through part,
// or with one shard one that has nothing to route.
func (e *Engine) newDict() *cellDict {
	if len(e.shards) == 1 {
		return newCellDict(&e.part.layout, nil)
	}
	return newCellDict(&e.part.layout, e.part)
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Unit returns the index of the currently open unit.
func (e *Engine) Unit() int64 { return e.unit }

// UnitsDone returns how many units have been closed.
func (e *Engine) UnitsDone() int64 { return e.unitsDone }

// CellsActive returns the cell dictionary's size when the last unit
// barrier emptied it: the distinct m-cells the open unit held then, summed
// over shards. Safe from any goroutine.
func (e *Engine) CellsActive() int64 { return e.cellsActive.Load() }

// ready guards every public operation behind the closed/sticky-error state.
func (e *Engine) ready() error {
	if e.closed {
		return fmt.Errorf("%w: engine closed", ErrConfig)
	}
	return e.err
}

// Ingest consumes one record: a run of one through the ingest loop
// (accumulate). Records may skip ticks (absent readings count as zero
// usage — and so does a whole absent unit: an o-cell with no reading in a
// closed unit registers a zero regression over it, see AdvanceFrames) and may
// open new cells mid-unit, but each cell's ticks must be non-decreasing
// and at most one reading per tick. Crossing a unit boundary closes earlier
// units on every shard; their snapshots are returned in order (a unit with
// no data has a nil Result), the values the engine publishes: read-only to
// callers, as to every reader. The record is then accumulated before
// Ingest returns; an out-of-range member fails here, after boundary handling.
func (e *Engine) Ingest(members []int32, tick int64, value float64) ([]*Snapshot, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(members) != e.part.layout.nd {
		return nil, fmt.Errorf("%w: %d members for %d dimensions", ErrRecord, len(members), e.part.layout.nd)
	}
	closed, err := e.reach(tick)
	if err != nil {
		return closed, err
	}
	code, bad := e.part.layout.code(members)
	if bad >= 0 {
		return closed, e.part.layout.rangeErr(bad, members[bad])
	}
	return closed, e.accumulate([]int64{tick}, []float64{value}, []uint64{code})
}

// reach makes tick's unit the open one, closing every unit before it and
// returning their snapshots; a tick before the open unit is ErrRecord.
func (e *Engine) reach(tick int64) ([]*Snapshot, error) {
	if tick < e.openStart {
		return nil, fmt.Errorf("%w: tick %d before open unit start %d", ErrRecord, tick, e.openStart)
	}
	if tick < e.openEnd {
		return nil, nil
	}
	return e.advanceTo((tick - e.cfg.StartTick) / int64(e.cfg.TicksPerUnit))
}

// open appends a new cell's accumulator to its shard's slab, at the next
// ordinal.
func (e *Engine) open(sid int32, code uint64) {
	sh := &e.shards[sid]
	sh.slab = append(sh.slab, *regression.NewAccumulator(e.openStart))
	sh.codes = append(sh.codes, code)
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

// advanceTo closes units up to (excluding) target on every shard in
// parallel: shard 0's on the caller's goroutine, every other shard's on a
// goroutine that ends with them. The first error in shard order sticks.
// Per closed unit, the shards' snapshots merge into one (MergeSnapshots,
// the merge the coordinator runs over nodes), stamped with the engine's
// count and origin; with snapshots on it is also published, so Snapshot()
// callers see the last one, and the units returned are the same at any
// shard count.
func (e *Engine) advanceTo(target int64) ([]*Snapshot, error) {
	from := e.unit
	e.cellsActive.Store(int64(e.dict.n))
	perShard, errs := make([][]*Snapshot, len(e.shards)), make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(e.shards); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perShard[i], errs[i] = e.shards[i].closeUnits(from, target)
		}()
	}
	perShard[0], errs[0] = e.shards[0].closeUnits(from, target)
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		e.err = err
		return nil, err
	}
	out, parts := make([]*Snapshot, target-from), make([]*Snapshot, len(perShard))
	for u := range out {
		for i, snaps := range perShard {
			parts[i] = snaps[u]
		}
		s, err := MergeSnapshots(e.cfg.Schema, parts)
		if err != nil {
			e.err = err
			return nil, err
		}
		s.UnitsDone, s.Origin = e.unitsDone+int64(u)+1, e.origin
		e.frames, out[u] = s.Frames, s
		if e.cfg.PublishSnapshots {
			e.publish(s)
		}
	}
	e.unit = target
	e.openStart = e.cfg.unitStart(target)
	e.openEnd = e.cfg.unitStart(target + 1)
	e.dict.reset() // the shards emptied their slabs
	e.unitsDone += int64(len(out))
	return out, nil
}

// AdvanceTo closes units in order until `unit` is the open unit, exactly
// as if a record at unit's first tick had arrived, and returns the closed
// units' snapshots. Targets at or before the open unit are a no-op. It is
// how a cluster ingest node applies the router's unit-boundary barrier
// frames (and a wall-clock driver with sparse data moves on): every node
// advances in lockstep even when it received no records for the closed
// units, so per-node checkpoints and snapshots always agree on the unit
// counters and merge losslessly.
func (e *Engine) AdvanceTo(unit int64) ([]*Snapshot, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if unit <= e.unit {
		return nil, nil
	}
	return e.advanceTo(unit)
}

// Flush closes the currently open unit even if it is mid-way: every active
// cell is zero-padded to the unit boundary first. Returns the unit's
// snapshot (nil Result when no cell had data).
func (e *Engine) Flush() (*Snapshot, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	snaps, err := e.advanceTo(e.unit + 1)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// ActiveCells returns the number of m-layer cells with data in the open
// unit, across all shards: the dictionary's size, since the shards' slabs
// hold exactly its cells.
func (e *Engine) ActiveCells() int { return e.dict.n }

// TrendQuery aggregates the last k units of an o-cell's history — the
// finest level of its frame, retaining TiltLevels[0].Slots units — into one
// regression over the combined interval (Theorem 3.3). It fails when fewer
// than k units are retained.
func (e *Engine) TrendQuery(cell cube.CellKey, k int) (regression.ISB, error) {
	return e.TrendQueryAt(cell, 0, k)
}

// TrendQueryAt aggregates the last k completed units of an o-cell at the
// given tilt level (0 = finest).
func (e *Engine) TrendQueryAt(cell cube.CellKey, level, k int) (regression.ISB, error) {
	return e.frameView().TrendQueryAt(cell, level, k)
}

// HistoryLen returns how many units of history an o-cell currently has at
// the finest granularity.
func (e *Engine) HistoryLen(cell cube.CellKey) int { return e.frameView().HistoryLen(cell) }

// frameView reads the frames the last close or Restore left like a
// snapshot.
func (e *Engine) frameView() *Snapshot { return &Snapshot{Chain: e.cfg.TiltLevels, Frames: e.frames} }

// WALSeq returns the WAL watermark: the count of write-ahead-log records
// this engine's state reflects (zero when no WAL is in use).
func (e *Engine) WALSeq() int64 { return e.walSeq }

// SetWALSeq stamps the WAL watermark. The log owner calls it after
// ingesting records it has durably appended, so the next Checkpoint
// records exactly which log prefix the state covers; recovery then replays
// records [WALSeq, end) and nothing else. It is a whole-log position, so
// MergeCheckpoints can demand that the parts of one stream agree on it.
func (e *Engine) SetWALSeq(seq int64) error {
	if err := e.ready(); err != nil {
		return err
	}
	e.walSeq = seq
	return nil
}

// Close marks the engine closed: every other method fails after it. The
// open unit's records are dropped — Flush first for the final partial
// unit. It has nothing to stop, and is idempotent.
func (e *Engine) Close() { e.closed = true }
