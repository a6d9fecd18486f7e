package mlr

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// FitRaw fits a multiple linear regression directly from raw observations
// via Householder QR on the design matrix. Unlike NCR (which compresses to
// the normal equations and is the right tool inside cubes), FitRaw keeps
// the full design matrix and therefore tolerates much worse conditioning —
// use it for one-off fits with aggressive bases (high-degree polynomials,
// mixed exponentials) where squaring the condition number would lose
// precision.
func FitRaw(b Basis, vars [][]float64, ys []float64) (*Model, error) {
	if b.Dim <= 0 || b.Map == nil {
		return nil, fmt.Errorf("%w: basis must have positive Dim and a Map function", ErrMismatch)
	}
	if len(vars) != len(ys) {
		return nil, fmt.Errorf("%w: %d observations but %d responses", ErrMismatch, len(vars), len(ys))
	}
	if len(ys) < b.Dim {
		return nil, fmt.Errorf("%w: %d observations for %d features", ErrEmpty, len(ys), b.Dim)
	}
	design := linalg.NewMatrix(len(ys), b.Dim)
	row := make([]float64, b.Dim)
	for i, v := range vars {
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("%w: response %d", ErrNonFinite, i)
		}
		b.Map(v, row)
		for j, f := range row {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("%w: feature %d of observation %d", ErrNonFinite, j, i)
			}
			design.Set(i, j, f)
		}
	}
	coef, err := linalg.QRSolve(design, append([]float64(nil), ys...))
	if err != nil {
		return nil, fmt.Errorf("mlr: QR fit: %w", err)
	}
	model := &Model{Basis: b, Coef: coef, N: int64(len(ys))}
	// Goodness of fit from the residuals directly.
	fitted, err := design.MulVec(coef)
	if err != nil {
		return nil, err
	}
	var rss, sum float64
	for i := range ys {
		d := ys[i] - fitted[i]
		rss += float64(d * d)
		sum += ys[i]
	}
	model.RSS = rss
	ybar := sum / float64(len(ys))
	var tss float64
	for _, y := range ys {
		d := y - ybar
		tss += float64(d * d)
	}
	switch {
	case tss > 0:
		model.R2 = 1 - rss/tss
	case rss <= 1e-12:
		model.R2 = 1
	default:
		model.R2 = 0
	}
	return model, nil
}
