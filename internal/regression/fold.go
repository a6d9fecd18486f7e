package regression

import (
	"fmt"

	"repro/internal/timeseries"
)

// FoldFunc identifies the SQL aggregate used to fold a block of fine ticks
// into one coarse tick (paper §6.2: "Different SQL aggregation functions
// can be used for folding, such as sum, avg, min, max, or last").
type FoldFunc int

// Folding aggregates.
const (
	FoldSum FoldFunc = iota
	FoldAvg
	FoldMin
	FoldMax
	FoldLast
)

// String returns the SQL-style name of the aggregate.
func (f FoldFunc) String() string {
	switch f {
	case FoldSum:
		return "sum"
	case FoldAvg:
		return "avg"
	case FoldMin:
		return "min"
	case FoldMax:
		return "max"
	case FoldLast:
		return "last"
	default:
		return fmt.Sprintf("FoldFunc(%d)", int(f))
	}
}

// Fold implements the third aggregation type of §6.2: folding k consecutive
// fine-granularity ticks into one coarse tick using the given aggregate.
// The series length must be an exact multiple of k. Coarse ticks are
// numbered starting at fine-tick tb/k semantics: coarse tick j covers fine
// ticks [tb + j·k, tb + (j+1)·k − 1], and the folded series starts at
// coarse tick 0.
func Fold(s *timeseries.Series, k int, f FoldFunc) (*timeseries.Series, error) {
	if s == nil || s.Len() == 0 {
		return nil, ErrEmpty
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: fold factor %d", ErrMismatch, k)
	}
	if s.Len()%k != 0 {
		return nil, fmt.Errorf("%w: series length %d not a multiple of fold factor %d",
			ErrMismatch, s.Len(), k)
	}
	m := s.Len() / k
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		block := s.Values[j*k : (j+1)*k]
		switch f {
		case FoldSum:
			var sum float64
			for _, v := range block {
				sum += v
			}
			out[j] = sum
		case FoldAvg:
			var sum float64
			for _, v := range block {
				sum += v
			}
			out[j] = sum / float64(k)
		case FoldMin:
			mn := block[0]
			for _, v := range block[1:] {
				if v < mn {
					mn = v
				}
			}
			out[j] = mn
		case FoldMax:
			mx := block[0]
			for _, v := range block[1:] {
				if v > mx {
					mx = v
				}
			}
			out[j] = mx
		case FoldLast:
			out[j] = block[k-1]
		default:
			return nil, fmt.Errorf("%w: unknown fold func %d", ErrMismatch, int(f))
		}
	}
	return timeseries.MustNew(0, out), nil
}

// FoldISB folds a fitted line directly, without materializing raw data.
// For the linear model ẑ(t) = α + β·t over [tb, tb+n·k−1] (n full blocks of
// k ticks), sum- and avg-folding of the *fitted* values are again exactly
// linear in the coarse tick j:
//
//	sum: Σ_{i=0..k−1} ẑ(tb+jk+i) = k·α + β·(k·tb + k(k−1)/2) + β·k²·j
//	avg: that divided by k.
//
// min/max/last folding of a line is the line's value at a block-fixed
// offset, so those are linear too. The coarse series starts at tick 0.
// The ISB interval length must be a multiple of k.
func FoldISB(r ISB, k int, f FoldFunc) (ISB, error) {
	if k <= 0 {
		return ISB{}, fmt.Errorf("%w: fold factor %d", ErrMismatch, k)
	}
	n := r.N()
	if n%int64(k) != 0 {
		return ISB{}, fmt.Errorf("%w: interval length %d not a multiple of fold factor %d",
			ErrMismatch, n, k)
	}
	m := n / int64(k)
	kf := float64(k)
	tbf := float64(r.Tb)
	var out ISB
	switch f {
	case FoldSum:
		base := float64(kf*r.Base) + float64(r.Slope*(float64(kf*tbf)+float64(kf*(kf-1)/2)))
		out = ISB{Tb: 0, Te: m - 1, Base: base, Slope: r.Slope * kf * kf}
	case FoldAvg:
		base := r.Base + float64(r.Slope*(tbf+float64((kf-1)/2)))
		out = ISB{Tb: 0, Te: m - 1, Base: base, Slope: r.Slope * kf}
	case FoldMin:
		// Line value at the block's smallest point: offset 0 for β≥0, k−1 otherwise.
		off := 0.0
		if r.Slope < 0 {
			off = kf - 1
		}
		out = ISB{Tb: 0, Te: m - 1, Base: r.Base + float64(r.Slope*(tbf+off)), Slope: r.Slope * kf}
	case FoldMax:
		off := kf - 1
		if r.Slope < 0 {
			off = 0
		}
		out = ISB{Tb: 0, Te: m - 1, Base: r.Base + float64(r.Slope*(tbf+off)), Slope: r.Slope * kf}
	case FoldLast:
		out = ISB{Tb: 0, Te: m - 1, Base: r.Base + float64(r.Slope*(tbf+kf-1)), Slope: r.Slope * kf}
	default:
		return ISB{}, fmt.Errorf("%w: unknown fold func %d", ErrMismatch, int(f))
	}
	// The base above is the folded value at coarse tick 0 in every case;
	// a single-block fold therefore just zeroes the slope, matching Fit's
	// convention that a one-point series has slope 0.
	if m == 1 {
		out.Slope = 0
	}
	return out, nil
}
