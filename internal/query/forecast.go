package query

import (
	"math"
	"sort"

	"repro/internal/cube"
	"repro/internal/insight"
)

// The predictive query kinds (DESIGN.md §14): Forecast evaluates a cell's
// trend model forward, Changes ranks cells whose recent trend diverges
// from their long-horizon trend. Both are pure functions of the snapshot
// — internal/insight does the math — so they carry the same determinism
// guarantee as every other kind: identical responses at any shard count
// and from the cluster coordinator's merged snapshot.

// ForecastRequest asks for the forward evaluation of an o-cell's trend:
// the predicted value Horizon ticks past the last recorded one, the fit
// confidence, and (with a threshold) the time until the fitted line
// crosses it.
type ForecastRequest struct {
	CellRef
	// K is how many trailing finest-granularity units the model
	// aggregates; 0 means every recorded unit.
	K int `json:"k,omitempty"`
	// Horizon is the look-ahead in ticks past the model's last covered
	// tick. Required; must be ≥ 1.
	Horizon int64 `json:"horizon"`
	// Threshold, when set, additionally asks when the fitted line crosses
	// this value (never when the slope points away).
	Threshold *float64 `json:"threshold,omitempty"`
}

// Kind returns KindForecast.
func (ForecastRequest) Kind() Kind { return KindForecast }

// Validate rejects negative windows, non-positive horizons, non-finite
// thresholds, and invalid cell references.
func (r ForecastRequest) Validate(s *cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means all recorded units)", r.K)
	}
	if r.Horizon < 1 {
		return invalidf("parameter horizon: %d is not positive", r.Horizon)
	}
	if r.Threshold != nil && (math.IsNaN(*r.Threshold) || math.IsInf(*r.Threshold, 0)) {
		return invalidf("parameter threshold: %g is not finite", *r.Threshold)
	}
	_, err := r.Resolve(s)
	return err
}

// ChangesRequest asks for the cells whose recent trend diverges from
// their long-horizon trend — the slope comparison between adjacent tilt
// levels, ranked by normalized divergence.
type ChangesRequest struct {
	// K truncates the ranked cells; 0 returns every scored cell.
	K int `json:"k,omitempty"`
	// MinScore filters cells whose divergence score is below it. Scores
	// are normalized to [0,1]; 0 (the default) keeps every comparable
	// cell.
	MinScore float64 `json:"minScore,omitempty"`
}

// Kind returns KindChanges.
func (ChangesRequest) Kind() Kind { return KindChanges }

// Validate rejects negative limits and out-of-range scores.
func (r ChangesRequest) Validate(*cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means no limit)", r.K)
	}
	if !(r.MinScore >= 0 && r.MinScore <= 1) {
		return invalidf("parameter score: %g outside [0,1]", r.MinScore)
	}
	return nil
}

// ForecastResponse answers a ForecastRequest: the window model (as the
// cell's ISB), its confidence, and the forward evaluation.
type ForecastResponse struct {
	Unit int64 `json:"unit"`
	// Cell carries the aggregate window model as its isb.
	Cell CellJSON `json:"cell"`
	// K is the window actually used (the request's 0 resolves to History).
	K int `json:"k"`
	// History counts the recorded finest-granularity units.
	History int `json:"history"`
	// R2 scores the model against the window's per-unit means (0..1).
	R2 float64 `json:"r2"`
	// Now is the last tick the model covers; Predicted is the fitted
	// value at Now+Horizon.
	Now       int64   `json:"now"`
	Horizon   int64   `json:"horizon"`
	Predicted float64 `json:"predicted"`
	// Threshold and TicksToThreshold appear only when a threshold was
	// given; a missing TicksToThreshold with a present Threshold means
	// the line never crosses it (slope flat or pointing away).
	Threshold        *float64 `json:"threshold,omitempty"`
	TicksToThreshold *float64 `json:"ticksToThreshold,omitempty"`
	// WillBreach reports a crossing inside the horizon.
	WillBreach bool `json:"willBreach"`
}

func (*ForecastResponse) isResponse() {}

// ChangeJSON is one scored cell of a ChangesResponse.
type ChangeJSON struct {
	Levels  []int   `json:"levels"`
	Members []int32 `json:"members"`
	Name    string  `json:"name"`
	// Score is the normalized slope divergence of the winning adjacent
	// level pair (0..1).
	Score float64 `json:"score"`
	// RecentLevel/LongLevel name the winning pair's granularities.
	RecentLevel string `json:"recentLevel"`
	LongLevel   string `json:"longLevel"`
	// RecentSlope/LongSlope are the aggregate slopes over every retained
	// slot at each granularity.
	RecentSlope float64 `json:"recentSlope"`
	LongSlope   float64 `json:"longSlope"`
}

// ChangesResponse answers a ChangesRequest: scored cells ranked
// score-descending (canonical key order on ties).
type ChangesResponse struct {
	Unit     int64        `json:"unit"`
	Interval IntervalJSON `json:"interval"`
	// Tilted reports whether the level chain has more than one
	// granularity; a one-level chain (the default) has no pair to compare
	// and scores no cells.
	Tilted bool `json:"tilted"`
	// Count is the total number of cells at or above MinScore before K
	// truncation.
	Count    int          `json:"count"`
	MinScore float64      `json:"minScore"`
	Cells    []ChangeJSON `json:"cells"`
}

func (*ChangesResponse) isResponse() {}

func (r ForecastRequest) run(e *Executor) (Response, error) {
	key, err := r.Resolve(e.schema)
	if err != nil {
		return nil, err
	}
	snap := e.snap
	pts := snap.HistoryOf(key)
	have := len(pts)
	if have == 0 {
		return nil, notFoundf("forecast for %s: no history", key.Describe(e.schema))
	}
	k := r.K
	if k == 0 {
		k = have
	}
	if k > have {
		return nil, notFoundf("forecast for %s: %d units requested, %d recorded",
			key.Describe(e.schema), k, have)
	}
	f, err := insight.ForecastHistory(pts[have-k:], r.Horizon, r.Threshold)
	if err != nil {
		// Validation already rejected bad arguments and a frame's units are
		// contiguous; what remains is a window the units cannot aggregate over.
		return nil, notFoundf("forecast for %s: %v", key.Describe(e.schema), err)
	}
	resp := &ForecastResponse{
		Unit:             snap.Unit,
		K:                f.Window,
		History:          have,
		R2:               f.R2,
		Now:              f.Now,
		Horizon:          f.Horizon,
		Predicted:        f.Predicted,
		Threshold:        f.Threshold,
		TicksToThreshold: f.TicksToThreshold,
		WillBreach:       f.WillBreach(),
	}
	resp.Cell.Levels, resp.Cell.Members = encodeKey(key)
	resp.Cell.Cuboid = key.Cuboid.Describe(e.schema)
	resp.Cell.Name = key.Describe(e.schema)
	resp.Cell.ISB = encodeISB(f.Model)
	return resp, nil
}

func (r ChangesRequest) run(e *Executor) (Response, error) {
	snap := e.snap
	resp := &ChangesResponse{
		Unit:     snap.Unit,
		Interval: encodeInterval(snap.Interval),
		Tilted:   snap.Tilted(),
		MinScore: r.MinScore,
	}
	scored := e.scoredChanges()
	scored = scored[:sort.Search(len(scored), func(i int) bool { return scored[i].Score < r.MinScore })]
	resp.Count = len(scored)
	if r.K > 0 && r.K < len(scored) {
		scored = scored[:r.K]
	}
	resp.Cells = make([]ChangeJSON, 0, len(scored))
	var name []byte // one rendering buffer for every cell's name
	for _, c := range scored {
		levels, members := encodeKey(c.Key)
		name = c.Key.AppendDescribe(name[:0], e.schema)
		resp.Cells = append(resp.Cells, ChangeJSON{
			Levels:      levels,
			Members:     members,
			Name:        string(name),
			Score:       c.Score,
			RecentLevel: c.RecentName,
			LongLevel:   c.LongName,
			RecentSlope: c.RecentSlope,
			LongSlope:   c.LongSlope,
		})
	}
	return resp, nil
}
