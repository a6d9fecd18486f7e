package query

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/insight"
	"repro/internal/stream"
)

// Executor answers typed Requests from one published engine snapshot. It
// precomputes the navigation state every request kind shares — the
// drill-down View, both exception orderings, the per-cuboid summary — so
// repeated requests against one unit reuse the sorts instead of
// re-ranking the full exception set per request. The change scan, which
// only changes requests read, is made by the first of them and kept. An
// Executor is otherwise immutable after construction and safe for
// concurrent use; serving layers cache one per snapshot (see
// internal/serve).
type Executor struct {
	schema  *cube.Schema
	snap    *stream.Snapshot
	view    *View               // nil when the unit closed empty
	bySlope []core.Cell         // every exception, steepest first
	byKey   []core.Cell         // every exception, canonical key order
	cuboids []CuboidSummaryJSON // the per-cuboid rollup summaries serve

	changesOnce sync.Once
	changes     []insight.CellChange // every scored cell, highest score first
}

// NewExecutor builds the dispatcher over a snapshot. A nil snapshot
// (nothing published yet) is ErrUnavailable; a snapshot whose unit closed
// empty is fine — per-cell requests just answer empty.
func NewExecutor(schema *cube.Schema, snap *stream.Snapshot) (*Executor, error) {
	if snap == nil {
		return nil, ErrUnavailable
	}
	e := &Executor{schema: schema, snap: snap}
	if !snap.Empty() {
		e.view = NewView(snap.Result)
		e.bySlope = e.view.TopExceptions(-1)
		e.byKey = e.view.exceptions
		for _, cs := range e.view.Summary() {
			levels := make([]int, cs.Cuboid.NumDims())
			for d := range levels {
				levels[d] = cs.Cuboid.Level(d)
			}
			e.cuboids = append(e.cuboids, CuboidSummaryJSON{
				Levels:      levels,
				Name:        cs.Cuboid.Describe(schema),
				Exceptions:  cs.Exceptions,
				MaxAbsSlope: cs.MaxAbsSlope,
			})
		}
	}
	return e, nil
}

// scoredChanges is the snapshot's change scan at score 0, made once: a
// request's answer is its prefix at the request's MinScore, since the scan
// ranks by descending score.
func (e *Executor) scoredChanges() []insight.CellChange {
	e.changesOnce.Do(func() { e.changes = insight.ScanChanges(e.snap, 0, 0) })
	return e.changes
}

// Snapshot returns the snapshot this executor answers from — serving
// layers key their executor cache on it.
func (e *Executor) Snapshot() *stream.Snapshot { return e.snap }

// Execute validates one request and runs it. Both value and pointer
// forms of the request types are accepted. Errors wrap ErrInvalid/ErrCell
// (bad request) or ErrNotFound (the snapshot does not hold the target).
func (e *Executor) Execute(req Request) (Response, error) {
	if req == nil {
		return nil, invalidf("nil request")
	}
	if err := req.Validate(e.schema); err != nil {
		return nil, err
	}
	return req.run(e)
}

// ExecuteBatch runs every enveloped request against this executor's one
// snapshot and collects per-request results — the body of POST /v1/query.
// Request errors never fail the batch; they land in the matching result
// with the status the request would have received standalone.
func (e *Executor) ExecuteBatch(queries []Envelope) *BatchResponse {
	resp := &BatchResponse{
		Unit:      e.snap.Unit,
		UnitsDone: e.snap.UnitsDone,
		Results:   make([]BatchResult, len(queries)),
	}
	for i, q := range queries {
		res, err := e.Execute(q.Request)
		if err != nil {
			resp.Results[i] = BatchResult{Status: HTTPStatus(err), Error: ErrorMessage(err)}
			continue
		}
		raw, err := json.Marshal(res)
		if err != nil {
			resp.Results[i] = BatchResult{Status: http.StatusInternalServerError, Error: err.Error()}
			continue
		}
		resp.Results[i] = BatchResult{OK: true, Result: raw}
	}
	return resp
}

func (SummaryRequest) run(e *Executor) (Response, error) {
	snap := e.snap
	resp := &SummaryResponse{
		Unit:      snap.Unit,
		UnitsDone: snap.UnitsDone,
		Interval:  encodeInterval(snap.Interval),
		Empty:     snap.Empty(),
		Alerts:    len(snap.Alerts),
		Cuboids:   []CuboidSummaryJSON{},
	}
	if e.view != nil {
		res := snap.Result
		resp.OCells = res.NumOCells()
		resp.Exceptions = res.NumExceptions()
		resp.Stats = &StatsJSON{
			Algorithm:       res.Stats.Algorithm,
			Tuples:          res.Stats.Tuples,
			TreeNodes:       res.Stats.TreeNodes,
			CuboidsComputed: res.Stats.CuboidsComputed,
			CellsComputed:   res.Stats.CellsComputed,
			CellsRetained:   res.Stats.CellsRetained,
			BytesRetained:   res.Stats.BytesRetained,
			BuildNanos:      res.Stats.BuildTime.Nanoseconds(),
			CubeNanos:       res.Stats.CubeTime.Nanoseconds(),
		}
		resp.Cuboids = e.cuboids
	}
	return resp, nil
}

func (r ExceptionsRequest) run(e *Executor) (Response, error) {
	resp := &CellsResponse{
		Unit:     e.snap.Unit,
		Interval: encodeInterval(e.snap.Interval),
		Cells:    []CellJSON{},
	}
	if e.view != nil {
		resp.Count = e.snap.Result.NumExceptions()
		cells := e.bySlope
		if r.Order == OrderKey {
			cells = e.byKey
		}
		if r.K > 0 && r.K < len(cells) {
			cells = cells[:r.K]
		}
		resp.Cells = encodeCells(e.schema, cells)
	}
	return resp, nil
}

func (AlertsRequest) run(e *Executor) (Response, error) {
	resp := &AlertsResponse{
		Unit:     e.snap.Unit,
		Interval: encodeInterval(e.snap.Interval),
		Alerts:   []AlertJSON{},
	}
	for _, a := range e.snap.Alerts {
		resp.Alerts = append(resp.Alerts, encodeAlert(e.schema, e.snap.Result, a))
	}
	return resp, nil
}

func (r SupportersRequest) run(e *Executor) (Response, error) {
	key, err := r.Resolve(e.schema)
	if err != nil {
		return nil, err
	}
	resp := &SupportersResponse{Unit: e.snap.Unit, Supporters: []CellJSON{}}
	resp.Cell.Levels, resp.Cell.Members = encodeKey(key)
	resp.Cell.Name = key.Describe(e.schema)
	if e.view != nil {
		res := e.snap.Result
		isb, ok := res.OCell(key)
		if !ok {
			isb, ok = res.Exception(key)
		}
		if ok {
			resp.Retained = true
			j := encodeISB(isb)
			resp.Cell.ISB = &j
		}
		sup := e.view.Supporters(key)
		resp.Count = len(sup)
		if r.K > 0 && r.K < len(sup) {
			sup = sup[:r.K]
		}
		resp.Supporters = encodeCells(e.schema, sup)
	}
	return resp, nil
}

func (r SliceRequest) run(e *Executor) (Response, error) {
	resp := &CellsResponse{
		Unit:     e.snap.Unit,
		Interval: encodeInterval(e.snap.Interval),
		Cells:    []CellJSON{},
	}
	if e.view != nil {
		cells := e.view.Slice(r.Dim, r.Level, r.Member)
		resp.Count = len(cells)
		if r.K > 0 && r.K < len(cells) {
			cells = cells[:r.K]
		}
		resp.Cells = encodeCells(e.schema, cells)
	}
	return resp, nil
}

func (r TrendRequest) run(e *Executor) (Response, error) {
	key, err := r.Resolve(e.schema)
	if err != nil {
		return nil, err
	}
	k := max(r.K, 1)
	snap := e.snap
	name := key.Describe(e.schema)
	v := snap.FrameOf(key)
	switch {
	case v == nil && r.Level == 0:
		return nil, notFoundf("trend for %s: %d units requested, 0 recorded", name, k)
	case v == nil:
		return nil, notFoundf("trend for %s: no history", name)
	case r.Level >= len(snap.Chain):
		return nil, invalidf("parameter level: %d outside [0,%d)", r.Level, len(snap.Chain))
	}
	slots, level := v.Frame.Levels[r.Level].Slots, snap.Chain[r.Level].Name
	if k > len(slots) && r.Level == 0 {
		return nil, notFoundf("trend for %s: %d units requested, %d recorded", name, k, len(slots))
	}
	if k > len(slots) {
		return nil, notFoundf("trend for %s: %d %s units requested, %d retained", name, k, level, len(slots))
	}
	isb, err := snap.TrendQueryAt(key, r.Level, k)
	if err != nil {
		return nil, notFoundf("trend for %s: %v", name, err)
	}
	resp := &TrendResponse{Unit: snap.Unit, K: k, History: len(slots), Points: []HistoryPointJSON{}}
	resp.Cell = encodeCell(e.schema, core.Cell{Key: key, ISB: isb})
	// The finest level is the per-unit history and speaks engine units;
	// coarser levels are named and number their slots from the frame's start.
	base := v.Base
	if r.Level > 0 {
		resp.Level, base = level, 0
	}
	for _, sl := range slots[len(slots)-k:] {
		resp.Points = append(resp.Points, HistoryPointJSON{Unit: base + sl.Unit, ISB: encodeISB(sl.ISB)})
	}
	return resp, nil
}

func (r FrameRequest) run(e *Executor) (Response, error) {
	key, err := r.Resolve(e.schema)
	if err != nil {
		return nil, err
	}
	snap := e.snap
	v := snap.FrameOf(key)
	if v == nil {
		return nil, notFoundf("frame for %s: no history", key.Describe(e.schema))
	}
	resp := &FrameResponse{Unit: snap.Unit, Tilted: snap.Tilted(), Base: v.Base, Levels: []FrameLevelJSON{}}
	resp.Cell.Levels, resp.Cell.Members = encodeKey(key)
	resp.Cell.Name = key.Describe(e.schema)
	ticks := snap.Interval.Len() // per finest slot: one engine unit
	for i, lv := range v.Frame.Levels {
		if i > 0 {
			ticks *= int64(snap.Chain[i].Multiple)
		}
		lj := FrameLevelJSON{
			Level:     i,
			Name:      snap.Chain[i].Name,
			UnitTicks: ticks,
			Capacity:  snap.Chain[i].Slots,
			Completed: lv.Next,
			Slots:     []HistoryPointJSON{},
		}
		for _, sl := range lv.Slots {
			lj.Slots = append(lj.Slots, HistoryPointJSON{Unit: sl.Unit, ISB: encodeISB(sl.ISB)})
		}
		resp.SlotsInUse += len(lj.Slots)
		resp.Levels = append(resp.Levels, lj)
	}
	return resp, nil
}
