// Package regression implements the compressed regression measure at the
// center of the paper (§3): least-squares linear fits of time series, their
// ISB (Interval, Slope, Base) and IntVal compact representations, and the
// two lossless aggregation theorems that let a regression cube roll cells up
// without ever touching raw stream data:
//
//   - Theorem 3.2 — aggregation on a standard dimension (series summed
//     pointwise over an identical interval): slopes and bases add.
//   - Theorem 3.3 — aggregation on the time dimension (intervals
//     concatenated): a closed-form recombination using only per-segment
//     ISBs.
//
// The package also provides Lemma 3.2 (the sum-of-variance-squares closed
// form), the IntVal equivalence of §3.2, an online accumulator for stream
// ingestion, and the §6.2 folding extension.
//
// Every product that feeds a sum is wrapped in an explicit float64(...):
// the conversion rounds, so gc cannot fuse the pair into one multiply-add
// on the CPUs where it would (arm64, ppc64le, riscv64, loong64, s390x),
// and a fit or an aggregate has the same bits on every CPU (DESIGN §6.3).
// FoldISB is outside that rule; no bitwise promise covers it.
package regression

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// ErrMismatch is returned when aggregation preconditions are violated.
var ErrMismatch = errors.New("regression: aggregation precondition violated")

// ErrEmpty is returned when an operation receives no inputs.
var ErrEmpty = errors.New("regression: no inputs")

// ErrNonFinite is returned when input data contains NaN or ±Inf.
var ErrNonFinite = errors.New("regression: non-finite input value")

// ISB is the compressed representation of the least-squares linear fit of a
// time series over [Tb, Te] (paper §3.2):
//
//	ẑ(t) = Base + Slope·t
//
// Theorem 3.1 shows this 4-tuple is sufficient to derive the regression
// model of every aggregated cell, and that no proper subset is.
type ISB struct {
	Tb, Te int64   // time interval, inclusive
	Base   float64 // α̂, the intercept of the fit
	Slope  float64 // β̂, the slope of the fit
}

// IntVal is the equivalent endpoint representation of §3.2: the interval
// plus the fitted values at tb and te. ISB and IntVal are interconvertible.
type IntVal struct {
	Tb, Te int64
	Zb, Ze float64 // fitted values ẑ(tb), ẑ(te)
}

// SVS returns the sum of variance squares Σ(t-t̄)² for an interval with n
// ticks, using the closed form of Lemma 3.2: (n³ − n)/12. The value is
// independent of where the interval starts.
func SVS(n int64) float64 {
	nf := float64(n)
	return (float64(nf*nf*nf) - nf) / 12
}

// Fit computes the least-squares linear fit of a raw series (Lemma 3.1).
// For a single-point series the slope is defined as 0 and the base as the
// point's value (the only degenerate case of the normal equations).
func Fit(s *timeseries.Series) (ISB, error) {
	if s == nil || s.Len() == 0 {
		return ISB{}, ErrEmpty
	}
	if !s.IsFinite() {
		return ISB{}, ErrNonFinite
	}
	n := int64(s.Len())
	isb := ISB{Tb: s.Interval.Tb, Te: s.Interval.Te}
	if n == 1 {
		isb.Base = s.Values[0]
		return isb, nil
	}
	tbar := float64(s.Interval.Mid()) // Mid's /2 compiles to a product
	var num float64
	for i, z := range s.Values {
		t := float64(s.Interval.Tb + int64(i))
		num += float64((t - tbar) * z)
	}
	isb.Slope = num / SVS(n)
	isb.Base = s.Mean() - float64(isb.Slope*tbar)
	return isb, nil
}

// MustFit is Fit for tests and examples; it panics on error.
func MustFit(s *timeseries.Series) ISB {
	isb, err := Fit(s)
	if err != nil {
		panic(err)
	}
	return isb
}

// N returns the number of ticks te − tb + 1.
func (r ISB) N() int64 { return r.Te - r.Tb + 1 }

// Interval returns the underlying time interval.
func (r ISB) Interval() timeseries.Interval {
	return timeseries.Interval{Tb: r.Tb, Te: r.Te}
}

// TBar returns the mean time t̄ = (tb + te)/2.
func (r ISB) TBar() float64 { return float64(r.Tb+r.Te) / 2 }

// At returns the fitted value ẑ(t) = α̂ + β̂·t.
func (r ISB) At(t int64) float64 { return r.Base + float64(r.Slope*float64(t)) }

// Mean returns z̄ = α̂ + β̂·t̄, the mean of the fitted (and of the original)
// series — a consequence of the fit passing through (t̄, z̄).
func (r ISB) Mean() float64 { return r.Base + float64(r.Slope*r.TBar()) }

// Sum returns n·z̄, the total of the original series, recoverable exactly
// from the ISB because the fit preserves the mean.
func (r ISB) Sum() float64 { return float64(float64(r.N()) * r.Mean()) }

// ToIntVal converts to the endpoint representation.
func (r ISB) ToIntVal() IntVal {
	return IntVal{Tb: r.Tb, Te: r.Te, Zb: r.At(r.Tb), Ze: r.At(r.Te)}
}

// ToISB converts the endpoint representation back to ISB. For a one-tick
// interval the slope is 0 by convention (matching Fit).
func (v IntVal) ToISB() ISB {
	if v.Te == v.Tb {
		return ISB{Tb: v.Tb, Te: v.Te, Base: v.Zb, Slope: 0}
	}
	slope := (v.Ze - v.Zb) / float64(v.Te-v.Tb)
	return ISB{Tb: v.Tb, Te: v.Te, Base: v.Zb - float64(slope*float64(v.Tb)), Slope: slope}
}

// Eval materializes the fitted line as a raw series, the "linear regression
// curve" of Figure 1(b).
func (r ISB) Eval() *timeseries.Series {
	vals := make([]float64, r.N())
	for i := range vals {
		vals[i] = r.At(r.Tb + int64(i))
	}
	return timeseries.MustNew(r.Tb, vals)
}

// IsFinite reports whether both parameters are finite.
func (r ISB) IsFinite() bool {
	return !math.IsNaN(r.Base) && !math.IsInf(r.Base, 0) &&
		!math.IsNaN(r.Slope) && !math.IsInf(r.Slope, 0)
}

// String renders the ISB like the paper's captions: ([tb,te], base, slope).
func (r ISB) String() string {
	return fmt.Sprintf("([%d,%d], %g, %g)", r.Tb, r.Te, r.Base, r.Slope)
}

// AggregateStandard implements Theorem 3.2: the ISB of a cell aggregated on
// a standard dimension from descendants c1..cK (whose series are summed
// pointwise). All inputs must cover the same interval.
func AggregateStandard(isbs ...ISB) (ISB, error) {
	if len(isbs) == 0 {
		return ISB{}, ErrEmpty
	}
	out := ISB{Tb: isbs[0].Tb, Te: isbs[0].Te}
	for i, r := range isbs {
		if r.Tb != out.Tb || r.Te != out.Te {
			return ISB{}, fmt.Errorf("%w: descendant %d has interval [%d,%d], want [%d,%d]",
				ErrMismatch, i, r.Tb, r.Te, out.Tb, out.Te)
		}
		out.Base += r.Base
		out.Slope += r.Slope
	}
	return out, nil
}

// AggregateTime implements Theorem 3.3: the ISB of a cell aggregated on the
// time dimension from descendants whose intervals form a contiguous,
// ordered partition of the result interval.
//
// With nᵢ the segment lengths, Sᵢ = nᵢ·z̄ᵢ the segment sums, and
// nₐ = Σnᵢ:
//
//	β̂ₐ = Σᵢ (nᵢ³−nᵢ)/(nₐ³−nₐ)·β̂ᵢ
//	    + 6·Σᵢ (2·Σ_{j<i} nⱼ + nᵢ − nₐ)/(nₐ³−nₐ) · (nₐSᵢ − nᵢSₐ)/nₐ
//	α̂ₐ = z̄ₐ − β̂ₐ·t̄ₐ
func AggregateTime(isbs ...ISB) (ISB, error) {
	return AggregateTimeFunc(len(isbs), func(i int) ISB { return isbs[i] })
}

// AggregateTimeFunc is AggregateTime over segments read through at(0) ..
// at(n−1), for callers whose ISBs sit inside larger records (tilt-frame
// slots): nothing is copied out and nothing is allocated. The segment sums
// are computed once for the grand total and again, by the same expression,
// where each is used — the operand order is AggregateTime's, so the result
// is bitwise the same.
func AggregateTimeFunc(n int, at func(i int) ISB) (ISB, error) {
	if n == 0 {
		return ISB{}, ErrEmpty
	}
	first := at(0)
	prev := first
	var sa float64 // the grand sum Sₐ; segment sums derive from ISBs alone
	for i := 0; i < n; i++ {
		r := at(i)
		if i > 0 && r.Tb != prev.Te+1 {
			return ISB{}, fmt.Errorf("%w: segment %d starts at %d, want %d",
				ErrMismatch, i, r.Tb, prev.Te+1)
		}
		sa += r.Sum()
		prev = r
	}
	tb, te := first.Tb, prev.Te
	na := float64(te - tb + 1)

	out := ISB{Tb: tb, Te: te}
	if na == 1 {
		out.Base = sa
		return out, nil
	}

	denom := float64(na*na*na) - na
	var beta float64
	var prefix float64 // Σ_{j<i} nⱼ
	for i := 0; i < n; i++ {
		r := at(i)
		ni := float64(r.N())
		beta += float64((float64(ni*ni*ni) - ni) / denom * r.Slope)
		beta += 6 * (float64(2*prefix) + ni - na) / denom * (float64(na*r.Sum()) - float64(ni*sa)) / na
		prefix += ni
	}
	out.Slope = beta

	zbar := sa / na
	tbar := float64(tb+te) / 2
	out.Base = zbar - float64(beta*tbar)
	return out, nil
}

// ResidualStats reports goodness-of-fit measures that require the raw
// series (they are deliberately *not* part of the ISB — Theorem 3.1(b)).
type ResidualStats struct {
	RSS float64 // residual sum of squares Σ(z−ẑ)²
	TSS float64 // total sum of squares Σ(z−z̄)²
	R2  float64 // 1 − RSS/TSS (1 when TSS = 0 and RSS = 0)
}

// Residuals computes fit diagnostics of isb against the raw series s. The
// series must cover exactly the ISB interval.
func Residuals(s *timeseries.Series, isb ISB) (ResidualStats, error) {
	if s == nil || s.Len() == 0 {
		return ResidualStats{}, ErrEmpty
	}
	if s.Interval.Tb != isb.Tb || s.Interval.Te != isb.Te {
		return ResidualStats{}, fmt.Errorf("%w: series %s vs ISB [%d,%d]",
			ErrMismatch, s.Interval, isb.Tb, isb.Te)
	}
	mean := s.Mean()
	var st ResidualStats
	for i, z := range s.Values {
		t := s.Interval.Tb + int64(i)
		d := z - isb.At(t)
		st.RSS += float64(d * d)
		m := z - mean
		st.TSS += float64(m * m)
	}
	switch {
	case st.TSS > 0:
		st.R2 = 1 - st.RSS/st.TSS
	case st.RSS == 0:
		st.R2 = 1
	default:
		st.R2 = 0
	}
	return st, nil
}
