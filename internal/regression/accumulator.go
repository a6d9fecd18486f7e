package regression

import (
	"fmt"
	"math"
)

// Accumulator computes the least-squares fit of a growing time series one
// point at a time, in O(1) space. Stream ingestion (§4.5) uses one
// accumulator per H-tree leaf and per current tilt-frame unit: minute
// readings accumulate until the unit (e.g. a quarter) completes, at which
// point Snapshot() yields the unit's ISB and the accumulator is Reset for
// the next unit.
//
// It maintains the sufficient statistics (n, Σz, Σt·z) for the fixed-start
// interval [tb, tb+n−1]; together with Lemma 3.2 these determine the fit.
type Accumulator struct {
	tb    int64
	n     int64
	sumZ  float64
	sumTZ float64
}

// NewAccumulator returns an accumulator for a series starting at tick tb.
func NewAccumulator(tb int64) *Accumulator {
	return &Accumulator{tb: tb}
}

// Add appends the observation z at the next tick. Ticks must arrive
// consecutively starting from tb; Add returns an error otherwise, and for
// non-finite values.
func (a *Accumulator) Add(t int64, z float64) error {
	if math.IsNaN(z) || math.IsInf(z, 0) {
		return fmt.Errorf("%w: z(%d)=%g", ErrNonFinite, t, z)
	}
	want := a.tb + a.n
	if t != want {
		return fmt.Errorf("%w: got tick %d, want %d", ErrMismatch, t, want)
	}
	a.n++
	a.sumZ += z
	a.sumTZ += float64(float64(t) * z)
	return nil
}

// AdvanceTo registers absent readings as zeros for every tick from
// NextTick up to (excluding) t, in O(1): a zero observation contributes
// +0.0 to both running sums, which leaves them bitwise unchanged (they
// start at +0.0 and can never become −0.0, since IEEE-754 addition only
// yields −0.0 from two negative-zero operands), so only the count moves.
// Equivalent to, and bit-for-bit interchangeable with, calling
// Add(NextTick(), 0) in a loop — the stream engine's gap fill without the
// O(gap) cost. A t at or before NextTick is a no-op.
func (a *Accumulator) AdvanceTo(t int64) {
	if n := t - a.tb; n > a.n {
		a.n = n
	}
}

// Observe is AdvanceTo(t) then Add(t, z) in one step — bit for bit — for a
// t at or after NextTick and a finite z. It reports false and changes
// nothing for anything else; Add then names the failure. The stream
// engines' per-record step, small enough to inline.
func (a *Accumulator) Observe(t int64, z float64) bool {
	if t < a.tb+a.n || z-z != 0 { // z-z is NaN for NaN and ±Inf
		return false
	}
	a.n = t - a.tb + 1
	a.sumZ += z
	a.sumTZ += float64(float64(t) * z)
	return true
}

// N returns the number of points accumulated so far.
func (a *Accumulator) N() int64 { return a.n }

// Empty reports whether no points have been added.
func (a *Accumulator) Empty() bool { return a.n == 0 }

// NextTick returns the tick the next Add must supply.
func (a *Accumulator) NextTick() int64 { return a.tb + a.n }

// Snapshot returns the ISB of the points accumulated so far. It returns
// ErrEmpty when no points have been added.
func (a *Accumulator) Snapshot() (ISB, error) {
	if a.n == 0 {
		return ISB{}, ErrEmpty
	}
	te := a.tb + a.n - 1
	isb := ISB{Tb: a.tb, Te: te}
	if a.n == 1 {
		isb.Base = a.sumZ
		return isb, nil
	}
	tbar := float64(a.tb+te) / 2
	zbar := a.sumZ / float64(a.n)
	// Σ(t−t̄)z = Σt·z − t̄·Σz.
	isb.Slope = (a.sumTZ - float64(tbar*a.sumZ)) / SVS(a.n)
	isb.Base = zbar - float64(isb.Slope*tbar)
	return isb, nil
}

// Reset prepares the accumulator for a new series starting at tick tb.
func (a *Accumulator) Reset(tb int64) {
	a.tb = tb
	a.n = 0
	a.sumZ = 0
	a.sumTZ = 0
}

// AccumulatorState is the serializable snapshot of an accumulator — the
// sufficient statistics a stream processor checkpoints for crash recovery.
type AccumulatorState struct {
	Tb    int64   `json:"tb"`
	N     int64   `json:"n"`
	SumZ  float64 `json:"sumZ"`
	SumTZ float64 `json:"sumTZ"`
}

// State exports the accumulator's sufficient statistics.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{Tb: a.tb, N: a.n, SumZ: a.sumZ, SumTZ: a.sumTZ}
}

// RestoreAccumulator rebuilds an accumulator from a checkpointed state.
func RestoreAccumulator(st AccumulatorState) (*Accumulator, error) {
	if st.N < 0 {
		return nil, fmt.Errorf("%w: negative count %d", ErrMismatch, st.N)
	}
	if math.IsNaN(st.SumZ) || math.IsInf(st.SumZ, 0) || math.IsNaN(st.SumTZ) || math.IsInf(st.SumTZ, 0) {
		return nil, fmt.Errorf("%w: non-finite sums", ErrNonFinite)
	}
	return &Accumulator{tb: st.Tb, n: st.N, sumZ: st.SumZ, sumTZ: st.SumTZ}, nil
}
