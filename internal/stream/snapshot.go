package stream

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
	"repro/internal/timeseries"
)

// HistoryPoint is one completed unit of an o-cell's regression history at
// the finest granularity, named by engine unit.
type HistoryPoint struct {
	Unit int64
	ISB  regression.ISB
}

// Snapshot is an immutable, internally consistent view of an engine as of
// one closed unit: the unit's cube result, its alerts in canonical order,
// and every o-cell's tilt frame — its regression history — ending at that
// unit. It is what closing a unit produces: Ingest, IngestBatch, AdvanceTo
// and Flush return it.
//
// Snapshots are published with an atomic pointer swap at each unit
// boundary (Config.PublishSnapshots) and are never mutated afterwards, so
// any number of reader goroutines can serve analyst queries from them —
// concurrently with ingestion — without locks and without ever observing a
// half-updated unit. A reader holding a Snapshot keeps a coherent unit
// even after the engine publishes newer ones.
type Snapshot struct {
	// Unit is the closed unit this snapshot reflects.
	Unit     int64
	Interval timeseries.Interval
	// UnitsDone counts closed units as of this snapshot.
	UnitsDone int64
	// Result is the unit's cube computation; nil when the unit closed with
	// no data (the Frames below still reflect earlier units). At more than
	// one shard it holds the shards' results as its parts (core.Merge),
	// merged only as a reader asks: lookups go to the part that holds the
	// cell's o-cell, canonical lists k-way merge the parts'. It is never
	// written after the unit closes, so any number of goroutines read it
	// without locks; a canonical list it hands out may be its own, and
	// must not be modified.
	Result *core.Result
	// Alerts are the unit's alerts in canonical order: unit, then cell
	// (cube.CompareKeys), then kind.
	Alerts []Alert
	// Chain is the engine's tilt level chain (Config.TiltLevels), finest
	// first: level i of every frame below is Chain[i].
	Chain []tilt.Level
	// Frames holds each o-cell's history in coordinate order, the records
	// the engine's checkpoint writes: the finest level the trailing
	// per-unit regressions (every frame ends at Unit; a unit the cell sat
	// out is a zero regression), coarser levels the promoted ones.
	Frames []CellFrame
	// Origin names the engine run that published the snapshot: a random
	// nonzero number drawn when the engine is made and again at every
	// Restore, so no two runs share one. A successor document applies only
	// to a predecessor of its origin (DecodeSnapshotAfter). A coordinator's
	// merge of nodes, which no one run published, has none (0).
	Origin uint64
}

// Empty reports whether this snapshot's unit closed with no data: Result
// is nil while Frames still reflect earlier units. Query
// consumers use it to answer structurally-empty responses instead of
// erroring.
func (s *Snapshot) Empty() bool { return s.Result == nil }

// FrameOf returns an o-cell's frame record (shared, do not mutate), or nil
// when the cell is unknown.
func (s *Snapshot) FrameOf(cell cube.CellKey) *CellFrame { return frameOf(s.Frames, cell) }

// Tilted reports whether the level chain has more than one granularity.
func (s *Snapshot) Tilted() bool { return len(s.Chain) > 1 }

// TrendQueryAt aggregates the last k completed units of an o-cell at the
// given tilt level (0 = finest), exactly like Engine.TrendQueryAt but
// against this immutable snapshot.
func (s *Snapshot) TrendQueryAt(cell cube.CellKey, level, k int) (regression.ISB, error) {
	f := s.FrameOf(cell)
	if f == nil {
		return regression.ISB{}, fmt.Errorf("%w: no history for cell %v", ErrRecord, cell)
	}
	if level < 0 || level >= len(s.Chain) {
		return regression.ISB{}, fmt.Errorf("%w: level %d of %d", ErrRecord, level, len(s.Chain))
	}
	isb, err := tilt.AggregateLast(s.Chain[level].Name, f.Frame.Levels[level].Slots, k)
	if err != nil {
		return isb, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	return isb, nil
}

// HistoryOf returns an o-cell's trailing per-unit history, oldest first:
// a fresh copy of its frame's finest level, named by engine unit.
func (s *Snapshot) HistoryOf(cell cube.CellKey) []HistoryPoint {
	if f := s.FrameOf(cell); f != nil {
		return f.History()
	}
	return nil
}

// History returns the frame's finest level as per-unit history points,
// frame ordinals mapped back to engine units.
func (f *CellFrame) History() []HistoryPoint {
	slots := f.Frame.Levels[0].Slots
	pts := make([]HistoryPoint, len(slots))
	for i, sl := range slots {
		pts[i] = HistoryPoint{Unit: f.Base + sl.Unit, ISB: sl.ISB}
	}
	return pts
}

// HistoryLen returns how many units of history an o-cell has in this
// snapshot.
func (s *Snapshot) HistoryLen(cell cube.CellKey) int {
	if f := s.FrameOf(cell); f != nil {
		return len(f.Frame.Levels[0].Slots)
	}
	return 0
}

// TrendQuery aggregates the last k units of an o-cell's history into one
// regression over the combined interval (Theorem 3.3).
func (s *Snapshot) TrendQuery(cell cube.CellKey, k int) (regression.ISB, error) {
	return s.TrendQueryAt(cell, 0, k)
}

// newOrigin draws an engine run's Origin.
func newOrigin() uint64 {
	for {
		if o := rand.Uint64(); o != 0 {
			return o
		}
	}
}

// publish swaps in the immutable view of a unit that just closed, then
// signals it: it closes the channel Published hands out and puts a fresh
// one in its place. The atomic store orders all snapshot construction
// before any reader's load, so a reader never sees a partially built
// snapshot.
func (e *Engine) publish(snap *Snapshot) {
	e.snap.Store(snap)
	next := make(chan struct{})
	close(*e.published.Swap(&next))
}

// Published returns the channel the next publish closes. A waiter for a
// unit newer than the one it has takes the channel before it looks at
// Snapshot, so a publish in between is seen, not slept through. Nothing
// is queued: every closed unit reaches its caller as Ingest, IngestBatch,
// AdvanceTo or Flush returns it, and a waiter only learns that Snapshot
// has moved. Safe from any goroutine.
func (e *Engine) Published() <-chan struct{} { return *e.published.Load() }

// Snapshot returns the most recently published unit view, or nil before
// the first unit closes (or when Config.PublishSnapshots is off). Unlike
// most Engine methods, Snapshot is safe to call from any goroutine
// concurrently with ingestion — it is a single atomic load.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }
