package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive definite matrix A. It returns ErrNotSPD if A is not
// (numerically) positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky needs a square matrix, got %dx%d", ErrDimension, a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			diag += float64(l.At(j, k) * l.At(j, k))
		}
		d := a.At(j, j) - diag
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: leading minor %d is %g", ErrNotSPD, j+1, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += float64(l.At(i, k) * l.At(j, k))
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b using a precomputed Cholesky factor L
// (A = L·Lᵀ) via forward then backward substitution.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: factor is %dx%d but rhs has %d entries", ErrDimension, n, n, len(b))
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l.At(i, k) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
	// Backward substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A·x = b for a symmetric positive definite A, falling back
// to pivoted Gaussian elimination when A is only semi-definite or mildly
// indefinite from rounding (common for near-collinear regression bases).
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	if l, err := Cholesky(a); err == nil {
		return SolveCholesky(l, b)
	}
	return SolveGauss(a, b)
}

// SolveGauss solves A·x = b by Gaussian elimination with partial pivoting.
// It returns ErrSingular when no pivot above tolerance exists.
func SolveGauss(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: SolveGauss needs a square matrix, got %dx%d", ErrDimension, a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: matrix is %dx%d but rhs has %d entries", ErrDimension, n, n, len(b))
	}
	// Work on copies: augmented system.
	m := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	const tiny = 1e-13
	scale := m.MaxAbs()
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero matrix", ErrSingular)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pivotAbs := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if ab := math.Abs(m.At(r, col)); ab > pivotAbs {
				pivot, pivotAbs = r, ab
			}
		}
		if pivotAbs <= tiny*scale {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, pivotAbs, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vp := m.At(col, j), m.At(pivot, j)
				m.Set(col, j, vp)
				m.Set(pivot, j, vi)
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			rhs[r] -= float64(f * rhs[col])
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= float64(m.At(i, j) * x[j])
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// Invert returns A⁻¹ computed column-by-column with SolveGauss.
func Invert(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Invert needs a square matrix, got %dx%d", ErrDimension, a.rows, a.cols)
	}
	n := a.rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveGauss(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Dot returns the inner product of two equally sized vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: vec(%d)·vec(%d)", ErrDimension, len(a), len(b))
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s, nil
}
