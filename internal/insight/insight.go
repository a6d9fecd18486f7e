// Package insight is the read-side prediction subsystem: it evaluates the
// regression state the engine already maintains *forward* instead of
// backward. The paper's compressed ISB measure is a linear model, so a
// cell's trend can answer "what will the value be at t+h?" and "when does
// the fitted line cross a threshold?" without any new per-record state —
// everything here is a pure function of one published stream.Snapshot.
//
// Two primitives:
//
//   - Forecast — aggregate a cell's trailing finest-granularity units into
//     one model (Theorem 3.3), evaluate it at a horizon, score the fit
//     (R² against the per-unit means), and solve for the time until the
//     line crosses a configured threshold (nil/never when the slope points
//     away from it).
//
//   - ScanChanges — compare each o-cell's slope at adjacent tilt levels
//     (the recent window at the finer level vs the long horizon at the
//     coarser one) and rank cells by the normalized slope divergence
//     |a−b|/(|a|+|b|) ∈ [0,1] — the streaming change signal.
//
// Because snapshots are bitwise-identical at any shard count and across
// the cluster's snapshot merge, every result here is too: the query layer
// (internal/query) and the alert lifecycle (internal/alert) both consume
// this package and inherit that determinism for free.
package insight

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// ErrArgs marks invalid forecast parameters (horizon < 1).
var ErrArgs = errors.New("insight: invalid argument")

// ErrHistory marks a history window a model cannot be fit over: empty, or
// with a gap between units.
var ErrHistory = errors.New("insight: unusable history")

// Forecast is the forward evaluation of one cell's trend model.
type Forecast struct {
	// Model is the aggregate regression over the window (Theorem 3.3).
	Model regression.ISB
	// Window counts the history units the model aggregates.
	Window int
	// R2 scores the model against the window's per-unit means: 1 when the
	// units line up perfectly, 0 when the line explains none of their
	// variation (clamped at 0; 1 by convention for a flat window the line
	// reproduces exactly).
	R2 float64
	// Now is the last tick the model covers (Model.Te); the prediction
	// evaluates Horizon ticks past it.
	Now int64
	// Horizon is the requested look-ahead in ticks.
	Horizon int64
	// Predicted is the fitted value at Now+Horizon.
	Predicted float64
	// Threshold echoes the configured threshold, when one was given.
	Threshold *float64
	// TicksToThreshold is how many ticks past Now the fitted line crosses
	// Threshold, in the direction the slope moves; nil when no threshold
	// was given, the slope is flat, or the line points away from the
	// threshold ("never").
	TicksToThreshold *float64
}

// WillBreach reports whether the threshold crossing falls inside the
// horizon.
func (f Forecast) WillBreach() bool {
	return f.TicksToThreshold != nil && *f.TicksToThreshold <= float64(f.Horizon)
}

// ForecastHistory fits the forward model over a cell's history window
// (oldest first, as stream snapshots expose it — the caller slices the
// trailing window). The units must be contiguous; horizon must be ≥ 1.
func ForecastHistory(pts []stream.HistoryPoint, horizon int64, threshold *float64) (Forecast, error) {
	if horizon < 1 {
		return Forecast{}, fmt.Errorf("%w: horizon %d is not positive", ErrArgs, horizon)
	}
	if len(pts) == 0 {
		return Forecast{}, fmt.Errorf("%w: no units", ErrHistory)
	}
	isbs := make([]regression.ISB, len(pts))
	for i, pt := range pts {
		if i > 0 && pt.Unit != pts[i-1].Unit+1 {
			return Forecast{}, fmt.Errorf("%w: gap between units %d and %d", ErrHistory, pts[i-1].Unit, pt.Unit)
		}
		isbs[i] = pt.ISB
	}
	return forecastSegments(isbs, horizon, threshold)
}

// forecastSegments is the model core over contiguous per-segment ISBs.
func forecastSegments(isbs []regression.ISB, horizon int64, threshold *float64) (Forecast, error) {
	model, err := regression.AggregateTime(isbs...)
	if err != nil {
		return Forecast{}, fmt.Errorf("%w: %v", ErrHistory, err)
	}
	f := Forecast{
		Model:     model,
		Window:    len(isbs),
		R2:        rsquared(model, isbs),
		Now:       model.Te,
		Horizon:   horizon,
		Predicted: model.At(model.Te + horizon),
		Threshold: threshold,
	}
	if threshold != nil {
		f.TicksToThreshold = TicksToThreshold(model, *threshold)
	}
	return f, nil
}

// rsquared scores the aggregate line against the per-segment means: each
// segment contributes the point (t̄ᵢ, z̄ᵢ) — both exactly recoverable
// from its ISB — and R² = 1 − Σ(z̄ᵢ−ẑ(t̄ᵢ))²/Σ(z̄ᵢ−m)². Raw residuals
// are deliberately out of reach (Theorem 3.1(b): the ISB does not carry
// them), so this is the finest confidence measure derivable from
// retained state alone. Conventions: a zero-variance window the line
// reproduces is 1, one it misses is 0, and the score is clamped at 0
// (the aggregate fit minimizes tick-level error, not segment-mean error,
// so the ratio can exceed 1 in degenerate windows). Each product is
// rounded before it is summed, as in package regression, so the score has
// the same bits on every CPU.
func rsquared(model regression.ISB, isbs []regression.ISB) float64 {
	var mean float64
	for _, r := range isbs {
		mean += r.Mean()
	}
	mean /= float64(len(isbs))
	var rss, tss float64
	for _, r := range isbs {
		z := r.Mean()
		d := z - (model.Base + float64(model.Slope*r.TBar())) // ẑ(t̄) with fractional t̄
		rss += float64(d * d)
		m := z - mean
		tss += float64(m * m)
	}
	switch {
	case tss > 0:
		if r2 := 1 - rss/tss; r2 > 0 {
			return r2
		}
		return 0
	case rss == 0:
		return 1
	default:
		return 0
	}
}

// TicksToThreshold solves the fitted line for the threshold crossing:
// the t ≥ 0 (ticks past the model's last covered tick) with
// ẑ(Te+t) = threshold. Nil means never — the slope is flat, or it moves
// the value away from the threshold (including a line already past the
// threshold and still heading away; once the level itself is breached,
// the slope-threshold alert topics own the signal).
func TicksToThreshold(model regression.ISB, threshold float64) *float64 {
	cur := model.At(model.Te)
	if cur == threshold {
		zero := 0.0
		return &zero
	}
	if model.Slope == 0 {
		return nil
	}
	t := (threshold - cur) / model.Slope
	if t < 0 || math.IsInf(t, 0) || math.IsNaN(t) {
		return nil
	}
	return &t
}

// CellChange is one cell's tilt-level slope divergence: the strongest
// disagreement between the trend at one granularity and the trend one
// level coarser.
type CellChange struct {
	Key cube.CellKey
	// Score is Divergence(RecentSlope, LongSlope) for the strongest
	// adjacent level pair.
	Score float64
	// RecentLevel/LongLevel index the winning adjacent pair (finer,
	// coarser); the names label them.
	RecentLevel, LongLevel int
	RecentName, LongName   string
	// RecentSlope/LongSlope are the aggregate slopes over every retained
	// slot at each level.
	RecentSlope, LongSlope float64
}

// Divergence is the normalized slope divergence |a−b|/(|a|+|b|) ∈ [0,1]:
// 0 when the trends agree (including both flat), 1 when they oppose or
// one is flat while the other moves.
func Divergence(a, b float64) float64 {
	denom := math.Abs(a) + math.Abs(b)
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// ScanChanges scores every framed o-cell of a snapshot and returns the
// cells whose score is at least minScore, ranked score-descending with
// canonical key order breaking ties — fully deterministic, because the
// frames themselves are deterministic at any shard count. A one-level
// chain (the default) has no second granularity to compare, so it scores
// no cells (an empty scan, not an error). k > 0 truncates the ranking.
func ScanChanges(snap *stream.Snapshot, minScore float64, k int) []CellChange {
	if snap == nil {
		return nil
	}
	var out []CellChange
	for i := range snap.Frames {
		if c, ok := scoreFrame(snap.Chain, &snap.Frames[i]); ok && c.Score >= minScore {
			if out == nil {
				out = make([]CellChange, 0, len(snap.Frames))
			}
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b CellChange) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cube.CompareKeys(a.Key, b.Key))
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// scoreFrame finds a frame's strongest adjacent-level divergence. Levels
// with no completed slot yet are skipped; a frame with fewer than two
// populated levels has nothing to compare (ok=false). Ties keep the
// finest pair — the most recent disagreement is the most actionable.
func scoreFrame(chain []tilt.Level, f *stream.CellFrame) (CellChange, bool) {
	c := CellChange{Key: f.Key(), Score: -1}
	levels := f.Frame.Levels
	for l := 0; l+1 < len(levels); l++ {
		fine, coarse := levels[l].Slots, levels[l+1].Slots
		if len(fine) == 0 || len(coarse) == 0 {
			continue
		}
		a, errA := levelSlope(chain[l].Name, fine)
		b, errB := levelSlope(chain[l+1].Name, coarse)
		if errA != nil || errB != nil {
			continue
		}
		if d := Divergence(a, b); d > c.Score {
			c.Score = d
			c.RecentLevel, c.LongLevel = l, l+1
			c.RecentName, c.LongName = chain[l].Name, chain[l+1].Name
			c.RecentSlope, c.LongSlope = a, b
		}
	}
	return c, c.Score >= 0
}

// levelSlope aggregates every retained slot of one level into a single
// trend (Theorem 3.3) and returns its slope. Retained slots at one level
// are always contiguous (promotion consumes a trailing window, eviction
// trims the front), so the aggregation cannot see a gap.
func levelSlope(name string, slots []tilt.Slot) (float64, error) {
	isb, err := tilt.AggregateLast(name, slots, len(slots))
	return isb.Slope, err
}
