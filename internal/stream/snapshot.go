package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/timeseries"
)

// HistoryPoint is one completed unit of an o-cell's regression history, as
// exposed through snapshots.
type HistoryPoint struct {
	Unit int64
	ISB  regression.ISB
}

// Snapshot is an immutable, internally consistent view of an engine as of
// one closed unit: the unit's cube result, its alerts in canonical order,
// and every o-cell's trailing regression history ending at that unit.
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
	// no data (the History below still reflects earlier units). It is the
	// same *core.Result the engine returned in the unit's UnitResult:
	// snapshot readers and the engine's caller share it, so with
	// PublishSnapshots on, callers must treat UnitResult.Result as
	// immutable (mutating its maps races concurrent readers).
	Result *core.Result
	// Alerts are the unit's alerts in canonical order (SortAlerts).
	Alerts []Alert
	// History maps each o-cell to its trailing per-unit regressions,
	// oldest first; cells alerted in this unit end at Unit. In tilt mode
	// it is derived from each frame's finest level, so trend consumers
	// work identically against flat and tilted engines.
	History map[cube.CellKey][]HistoryPoint
	// Frames maps each o-cell to its multi-granularity tilted history.
	// Non-nil exactly when the engine runs with Config.TiltLevels, so
	// readers can distinguish "no tilt configured" (nil) from "no cells
	// yet" (empty).
	Frames map[cube.CellKey]*FrameView
}

// Empty reports whether this snapshot's unit closed with no data: Result
// is nil while History (and Frames) still reflect earlier units. Query
// consumers use it to answer structurally-empty responses instead of
// erroring.
func (s *Snapshot) Empty() bool { return s.Result == nil }

// FrameOf returns an o-cell's tilted frame view (shared, do not mutate),
// or nil when the cell is unknown or the engine keeps flat history.
func (s *Snapshot) FrameOf(cell cube.CellKey) *FrameView {
	return s.Frames[cell]
}

// TrendQueryAt aggregates the last k completed units of an o-cell at the
// given tilt level (0 = finest, answered from History in either mode).
func (s *Snapshot) TrendQueryAt(cell cube.CellKey, level, k int) (regression.ISB, error) {
	if level == 0 {
		return s.TrendQuery(cell, k)
	}
	v := s.Frames[cell]
	if v == nil {
		if s.Frames == nil {
			return regression.ISB{}, fmt.Errorf("%w: level %d trend on a flat-history engine", ErrRecord, level)
		}
		return regression.ISB{}, fmt.Errorf("%w: no history for cell %v", ErrRecord, cell)
	}
	return v.Query(level, k)
}

// HistoryOf returns an o-cell's trailing history (shared, do not mutate).
func (s *Snapshot) HistoryOf(cell cube.CellKey) []HistoryPoint {
	return s.History[cell]
}

// HistoryLen returns how many units of history an o-cell has in this
// snapshot.
func (s *Snapshot) HistoryLen(cell cube.CellKey) int { return len(s.History[cell]) }

// TrendQuery aggregates the last k units of an o-cell's history into one
// regression over the combined interval (Theorem 3.3), exactly like
// Engine.TrendQuery but against this immutable snapshot.
func (s *Snapshot) TrendQuery(cell cube.CellKey, k int) (regression.ISB, error) {
	h := s.History[cell]
	return aggregateTrend(len(h), k, func(i int) (int64, regression.ISB) { return h[i].Unit, h[i].ISB })
}

// aggregateTrend is the shared trend-query core: aggregate the last k of
// n history points (at(i) yields the i-th, oldest first) into one
// regression, rejecting short or gapped histories. Engine.TrendQuery and
// Snapshot.TrendQuery answer identically because both delegate here.
func aggregateTrend(n, k int, at func(i int) (int64, regression.ISB)) (regression.ISB, error) {
	if k < 1 || k > n {
		return regression.ISB{}, fmt.Errorf("%w: %d units requested, %d recorded", ErrRecord, k, n)
	}
	isbs := make([]regression.ISB, k)
	var prevUnit int64
	for i := 0; i < k; i++ {
		unit, isb := at(n - k + i)
		if i > 0 && unit != prevUnit+1 {
			return regression.ISB{}, fmt.Errorf("%w: history gap between units %d and %d",
				ErrRecord, prevUnit, unit)
		}
		prevUnit = unit
		isbs[i] = isb
	}
	return regression.AggregateTime(isbs...)
}

// snapshotHistory deep-copies the engine's per-o-cell history into the
// snapshot representation. The engine mutates its history slices in place
// on later units, so sharing backing arrays with published snapshots would
// race; the copy runs at unit boundaries only, never on the per-record
// path.
func (e *Engine) snapshotHistory() map[cube.CellKey][]HistoryPoint {
	if e.tilted() {
		// Frames already copy on read; derive the finest-level view.
		return e.tiltHistory()
	}
	out := make(map[cube.CellKey][]HistoryPoint, len(e.history))
	for key, h := range e.history {
		pts := make([]HistoryPoint, len(h))
		for i, entry := range h {
			pts[i] = HistoryPoint{Unit: entry.unit, ISB: entry.isb}
		}
		out[key] = pts
	}
	return out
}

// cloneAlerts deep-copies an alert list (including each alert's Drill
// slice) so the engine's caller can re-sort or truncate the returned
// UnitResult.Alerts without snapshot readers observing it. (The Result
// maps are still shared; see Snapshot.Result.)
func cloneAlerts(alerts []Alert) []Alert {
	out := make([]Alert, len(alerts))
	copy(out, alerts)
	for i := range out {
		if len(out[i].Drill) > 0 {
			drill := make([]core.Cell, len(out[i].Drill))
			copy(drill, out[i].Drill)
			out[i].Drill = drill
		}
	}
	return out
}

// publishSnapshot swaps in the immutable view of the unit that just
// closed. The atomic store orders all snapshot construction before any
// reader's load, so a reader never sees a partially built snapshot.
func (e *Engine) publishSnapshot(ur *UnitResult) {
	snap := &Snapshot{
		Unit:      ur.Unit,
		Interval:  ur.Interval,
		UnitsDone: e.unitsDone,
		Result:    ur.Result,
		Alerts:    cloneAlerts(ur.Alerts),
		History:   e.snapshotHistory(),
		Frames:    e.snapshotFrames(),
	}
	e.snap.Store(snap)
	e.bus.publish(snap)
}

// Snapshot returns the most recently published unit view, or nil before
// the first unit closes (or when Config.PublishSnapshots is off). Unlike
// every other Engine method, Snapshot is safe to call from any goroutine
// concurrently with ingestion — it is a single atomic load.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Snapshot returns the most recently published merged unit view, or nil
// before the first boundary (or when Config.PublishSnapshots is off). It
// is safe to call from any goroutine concurrently with the coordinator's
// Ingest loop — it is a single atomic load.
func (s *ShardedEngine) Snapshot() *Snapshot { return s.snap.Load() }
