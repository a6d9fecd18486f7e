// Package mlr implements the paper's §6.2 generalization: multiple linear
// regression over stream data with more than one regression variable (e.g.
// spatial coordinates of sensors in addition to time), with irregular time
// ticks, and with nonlinear basis functions (log, polynomial, exponential).
//
// The compressed representation generalizing ISB is the normal-equation
// sufficient statistic set
//
//	NCR = (n, XᵀX, Xᵀy, yᵀy)
//
// where X is the design matrix of basis-function values and y the observed
// responses. NCR supports both of the paper's aggregation modes:
//
//   - standard-dimension roll-up (responses of descendant cells are summed
//     over identical observation points): Xᵀy adds, XᵀX is shared;
//   - time-dimension roll-up (observation sets are concatenated): both XᵀX
//     and Xᵀy add.
//
// Either way, the fitted coefficients of any aggregated cell are recovered
// by solving the merged normal equations — no raw data needed.
package mlr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrMismatch is returned when representations are not compatible.
var ErrMismatch = errors.New("mlr: incompatible representations")

// ErrEmpty is returned for operations on empty models.
var ErrEmpty = errors.New("mlr: no observations")

// ErrNonFinite is returned when inputs contain NaN or ±Inf.
var ErrNonFinite = errors.New("mlr: non-finite input")

// Basis maps a raw regressor vector (e.g. (t) or (t, x, y, z)) to the
// feature vector used as one design-matrix row. Dim is the feature count.
type Basis struct {
	// Name describes the basis for diagnostics.
	Name string
	// Dim is the number of features the basis emits.
	Dim int
	// Map fills dst (length Dim) with the features of raw input vars.
	Map func(vars []float64, dst []float64)
}

// LinearBasis returns the basis (1, v₁, …, v_d): an intercept plus each raw
// variable — ordinary multiple linear regression over d regressors.
func LinearBasis(d int) Basis {
	return Basis{
		Name: fmt.Sprintf("linear(%d)", d),
		Dim:  d + 1,
		Map: func(vars, dst []float64) {
			dst[0] = 1
			copy(dst[1:], vars)
		},
	}
}

// TimeBasis is LinearBasis(1): the (1, t) basis whose two coefficients are
// exactly the paper's (α̂, β̂).
func TimeBasis() Basis {
	b := LinearBasis(1)
	b.Name = "time"
	return b
}

// PolynomialBasis returns (1, t, t², …, t^degree) over a single variable —
// the paper's polynomial extension.
func PolynomialBasis(degree int) Basis {
	return Basis{
		Name: fmt.Sprintf("poly(%d)", degree),
		Dim:  degree + 1,
		Map: func(vars, dst []float64) {
			t := vars[0]
			p := 1.0
			for i := 0; i <= degree; i++ {
				dst[i] = p
				p *= t
			}
		},
	}
}

// LogBasis returns (1, log v) over a single positive variable — the paper's
// log-function extension.
func LogBasis() Basis {
	return Basis{
		Name: "log",
		Dim:  2,
		Map: func(vars, dst []float64) {
			dst[0] = 1
			dst[1] = math.Log(vars[0])
		},
	}
}

// ExpBasis returns (1, e^(rate·v)) over a single variable — the paper's
// exponential-function extension with a fixed rate.
func ExpBasis(rate float64) Basis {
	return Basis{
		Name: fmt.Sprintf("exp(%g)", rate),
		Dim:  2,
		Map: func(vars, dst []float64) {
			dst[0] = 1
			dst[1] = math.Exp(rate * vars[0])
		},
	}
}

// NCR is the compressed sufficient-statistic representation of a multiple
// linear regression model (the §6.2 analogue of ISB).
type NCR struct {
	basis Basis
	n     int64          // observation count
	xtx   *linalg.Matrix // XᵀX, Dim×Dim
	xty   []float64      // Xᵀy, length Dim
	yty   float64        // yᵀy, for RSS/R² recovery
	sumY  float64        // Σy, for TSS recovery
}

// New returns an empty NCR for the given basis.
func New(b Basis) *NCR {
	if b.Dim <= 0 || b.Map == nil {
		panic("mlr: basis must have positive Dim and a Map function")
	}
	return &NCR{
		basis: b,
		xtx:   linalg.NewMatrix(b.Dim, b.Dim),
		xty:   make([]float64, b.Dim),
	}
}

// Basis returns the basis the representation was built with.
func (m *NCR) Basis() Basis { return m.basis }

// N returns the number of observations absorbed.
func (m *NCR) N() int64 { return m.n }

// Observe absorbs one observation: raw regressor values vars and response y.
// Irregular ticks are supported naturally — vars carries whatever time value
// the observation has.
func (m *NCR) Observe(vars []float64, y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("%w: y=%g", ErrNonFinite, y)
	}
	for _, v := range vars {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: regressor %g", ErrNonFinite, v)
		}
	}
	row := make([]float64, m.basis.Dim)
	m.basis.Map(vars, row)
	for i := 0; i < m.basis.Dim; i++ {
		if math.IsNaN(row[i]) || math.IsInf(row[i], 0) {
			return fmt.Errorf("%w: basis feature %d is %g", ErrNonFinite, i, row[i])
		}
	}
	for i := 0; i < m.basis.Dim; i++ {
		for j := 0; j < m.basis.Dim; j++ {
			m.xtx.Add(i, j, row[i]*row[j])
		}
		m.xty[i] += float64(row[i] * y)
	}
	m.yty += float64(y * y)
	m.sumY += y
	m.n++
	return nil
}

// Clone returns a deep copy.
func (m *NCR) Clone() *NCR {
	c := New(m.basis)
	c.n = m.n
	c.xtx = m.xtx.Clone()
	copy(c.xty, m.xty)
	c.yty = m.yty
	c.sumY = m.sumY
	return c
}

func (m *NCR) compatible(o *NCR) error {
	if m.basis.Dim != o.basis.Dim || m.basis.Name != o.basis.Name {
		return fmt.Errorf("%w: basis %q(%d) vs %q(%d)",
			ErrMismatch, m.basis.Name, m.basis.Dim, o.basis.Name, o.basis.Dim)
	}
	return nil
}

// MergeTime aggregates on the time dimension (or any concatenation of
// disjoint observation sets): all sufficient statistics add.
func MergeTime(parts ...*NCR) (*NCR, error) {
	if len(parts) == 0 {
		return nil, ErrEmpty
	}
	out := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := out.compatible(p); err != nil {
			return nil, err
		}
		if err := out.xtx.AccumulateInPlace(p.xtx); err != nil {
			return nil, err
		}
		for i := range out.xty {
			out.xty[i] += p.xty[i]
		}
		out.yty += p.yty
		out.sumY += p.sumY
		out.n += p.n
	}
	return out, nil
}

// MergeStandard aggregates on a standard dimension: descendant cells share
// the same observation points (same X), and their responses are summed
// pointwise, so Xᵀy adds while XᵀX and n stay those of a single descendant.
// All parts must have identical n and XᵀX (within tol of relative error).
//
// yᵀy of a pointwise sum is not derivable from the parts' statistics alone
// (it needs the cross terms Σyᵢyⱼ), so the merged yᵀy and sumY are set to
// NaN-free conservative values: sumY adds exactly; yᵀy is invalidated (set
// to NaN) and goodness-of-fit queries on the merged model return an error.
// Fitted coefficients — the paper's concern — remain exact.
func MergeStandard(tol float64, parts ...*NCR) (*NCR, error) {
	if len(parts) == 0 {
		return nil, ErrEmpty
	}
	out := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := out.compatible(p); err != nil {
			return nil, err
		}
		if p.n != out.n {
			return nil, fmt.Errorf("%w: observation counts %d vs %d", ErrMismatch, out.n, p.n)
		}
		for i := 0; i < out.basis.Dim; i++ {
			for j := 0; j < out.basis.Dim; j++ {
				a, b := out.xtx.At(i, j), p.xtx.At(i, j)
				if math.Abs(a-b) > tol*(1+math.Max(math.Abs(a), math.Abs(b))) {
					return nil, fmt.Errorf("%w: XᵀX(%d,%d) %g vs %g", ErrMismatch, i, j, a, b)
				}
			}
		}
		for i := range out.xty {
			out.xty[i] += p.xty[i]
		}
		out.sumY += p.sumY
	}
	if len(parts) > 1 {
		out.yty = math.NaN() // cross terms unavailable; see doc comment
	}
	return out, nil
}

// Model is a fitted multiple linear regression.
type Model struct {
	Basis Basis
	Coef  []float64 // coefficients in basis-feature order
	N     int64
	RSS   float64 // residual sum of squares (NaN when not derivable)
	R2    float64 // coefficient of determination (NaN when not derivable)
}

// Fit solves the normal equations (XᵀX)θ = Xᵀy. It needs at least Dim
// observations and a non-singular XᵀX.
func (m *NCR) Fit() (*Model, error) {
	if m.n == 0 {
		return nil, ErrEmpty
	}
	if m.n < int64(m.basis.Dim) {
		return nil, fmt.Errorf("%w: %d observations for %d features", ErrEmpty, m.n, m.basis.Dim)
	}
	coef, err := linalg.SolveSPD(m.xtx.Clone(), append([]float64(nil), m.xty...))
	if err != nil {
		return nil, fmt.Errorf("mlr: normal equations: %w", err)
	}
	model := &Model{Basis: m.basis, Coef: coef, N: m.n}

	if math.IsNaN(m.yty) {
		model.RSS, model.R2 = math.NaN(), math.NaN()
		return model, nil
	}
	// RSS = yᵀy − θᵀXᵀy; TSS = yᵀy − n·ȳ².
	dot, err := linalg.Dot(coef, m.xty)
	if err != nil {
		return nil, err
	}
	model.RSS = m.yty - dot
	if model.RSS < 0 && model.RSS > -1e-9*(1+math.Abs(m.yty)) {
		model.RSS = 0 // clamp tiny negative rounding
	}
	ybar := m.sumY / float64(m.n)
	tss := m.yty - float64(float64(m.n)*ybar*ybar)
	switch {
	case tss > 0:
		model.R2 = 1 - model.RSS/tss
	case model.RSS <= 1e-12:
		model.R2 = 1
	default:
		model.R2 = 0
	}
	return model, nil
}

// Predict evaluates the fitted model at raw regressor values vars.
func (md *Model) Predict(vars []float64) float64 {
	row := make([]float64, md.Basis.Dim)
	md.Basis.Map(vars, row)
	var s float64
	for i, c := range md.Coef {
		s += float64(c * row[i])
	}
	return s
}

// String renders the model compactly.
func (md *Model) String() string {
	return fmt.Sprintf("Model{basis=%s n=%d coef=%v}", md.Basis.Name, md.N, md.Coef)
}
