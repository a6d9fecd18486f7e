// Package timeseries provides the raw time-series data model used throughout
// the regression cube (paper §2.2): a series is a function z(t) over a
// discrete integer interval [tb, te].
//
// Series in a data cube are related in two ways that mirror the paper's two
// aggregation theorems: pointwise summation (standard-dimension roll-up) and
// interval concatenation (time-dimension roll-up). This package provides
// both operations on raw data so that higher layers can validate that the
// compressed ISB algebra reproduces exactly what raw-data computation would.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrInterval is returned for malformed or mismatched time intervals.
var ErrInterval = errors.New("timeseries: invalid interval")

// ErrEmpty is returned when an operation requires a non-empty series.
var ErrEmpty = errors.New("timeseries: empty series")

// Interval is a closed range [Tb, Te] of discrete integer time ticks.
type Interval struct {
	Tb, Te int64
}

// Len returns the number of ticks in the interval (te - tb + 1).
func (iv Interval) Len() int64 { return iv.Te - iv.Tb + 1 }

// Mid returns the mean time t̄ = (tb+te)/2 (Lemma 3.1).
func (iv Interval) Mid() float64 { return float64(iv.Tb+iv.Te) / 2 }

// Contains reports whether t lies inside the interval.
func (iv Interval) Contains(t int64) bool { return t >= iv.Tb && t <= iv.Te }

// Equal reports whether two intervals are identical.
func (iv Interval) Equal(other Interval) bool { return iv.Tb == other.Tb && iv.Te == other.Te }

// Adjacent reports whether other starts exactly one tick after iv ends.
func (iv Interval) Adjacent(other Interval) bool { return other.Tb == iv.Te+1 }

// String renders the interval as "[tb,te]".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Tb, iv.Te) }

// Series is a discrete time series z(t) : t ∈ [tb, te]. Values[i] holds
// z(tb+i). The zero Series is empty and invalid for most operations.
type Series struct {
	Interval Interval
	Values   []float64
}

// New builds a series over [tb, tb+len(values)-1]. The value slice is used
// directly (not copied).
func New(tb int64, values []float64) (*Series, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	return &Series{
		Interval: Interval{Tb: tb, Te: tb + int64(len(values)) - 1},
		Values:   values,
	}, nil
}

// MustNew is New for literals in tests and examples; it panics on error.
func MustNew(tb int64, values []float64) *Series {
	s, err := New(tb, values)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// At returns z(t). It returns an error when t is outside the interval.
func (s *Series) At(t int64) (float64, error) {
	if !s.Interval.Contains(t) {
		return 0, fmt.Errorf("%w: t=%d outside %s", ErrInterval, t, s.Interval)
	}
	return s.Values[t-s.Interval.Tb], nil
}

// Mean returns z̄, the mean of the values.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Sum returns Σ z(t).
func (s *Series) Sum() float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// Min returns the minimum value; NaN for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value; NaN for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Last returns the final value (e.g. a closing quote); NaN for empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Values[len(s.Values)-1]
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	vals := make([]float64, len(s.Values))
	copy(vals, s.Values)
	return &Series{Interval: s.Interval, Values: vals}
}

// Slice returns the sub-series over [tb, te], which must lie inside the
// series interval. The returned series shares backing storage.
func (s *Series) Slice(tb, te int64) (*Series, error) {
	if tb < s.Interval.Tb || te > s.Interval.Te || te < tb {
		return nil, fmt.Errorf("%w: slice [%d,%d] of %s", ErrInterval, tb, te, s.Interval)
	}
	lo := tb - s.Interval.Tb
	hi := te - s.Interval.Tb + 1
	return &Series{Interval: Interval{Tb: tb, Te: te}, Values: s.Values[lo:hi]}, nil
}

// Add returns the pointwise sum of series defined over the *same* interval.
// This is the standard-dimension aggregation semantics of §3.3: the series
// of an aggregated cell is the sum of its descendants' series.
func Add(series ...*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, ErrEmpty
	}
	base := series[0]
	out := make([]float64, base.Len())
	copy(out, base.Values)
	for _, s := range series[1:] {
		if !s.Interval.Equal(base.Interval) {
			return nil, fmt.Errorf("%w: cannot add %s to %s", ErrInterval, s.Interval, base.Interval)
		}
		for i, v := range s.Values {
			out[i] += v
		}
	}
	return &Series{Interval: base.Interval, Values: out}, nil
}

// Concat returns the concatenation of series whose intervals form a
// contiguous partition (each starts one tick after the previous ends). This
// is the time-dimension aggregation semantics of §3.4.
func Concat(series ...*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, ErrEmpty
	}
	total := 0
	for i, s := range series {
		if i > 0 && !series[i-1].Interval.Adjacent(s.Interval) {
			return nil, fmt.Errorf("%w: %s does not follow %s", ErrInterval, s.Interval, series[i-1].Interval)
		}
		total += s.Len()
	}
	out := make([]float64, 0, total)
	for _, s := range series {
		out = append(out, s.Values...)
	}
	return &Series{
		Interval: Interval{Tb: series[0].Interval.Tb, Te: series[len(series)-1].Interval.Te},
		Values:   out,
	}, nil
}

// Scale returns a new series with every value multiplied by f.
func (s *Series) Scale(f float64) *Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] *= f
	}
	return out
}

// IsFinite reports whether every value is finite (no NaN/±Inf). Stream
// ingestion uses this as a data-quality guard.
func (s *Series) IsFinite() bool {
	for _, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders a compact description.
func (s *Series) String() string {
	return fmt.Sprintf("Series%s n=%d mean=%.4g", s.Interval, s.Len(), s.Mean())
}
