package linalg

import (
	"fmt"
	"math"
)

// QRSolve solves the least-squares problem min‖Ax − b‖₂ for an m×n matrix
// A with m ≥ n and full column rank, via Householder QR. Unlike the
// normal-equation route (condition number squared), QR works directly on
// A — the robust path for ill-conditioned design matrices such as
// high-degree polynomial bases.
func QRSolve(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("%w: %d equations for %d unknowns", ErrDimension, m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("%w: matrix is %dx%d but rhs has %d entries", ErrDimension, m, n, len(b))
	}
	r := a.Clone()
	qtb := make([]float64, m)
	copy(qtb, b)

	scale := r.MaxAbs()
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero matrix", ErrSingular)
	}
	const tiny = 1e-13
	v := make([]float64, m)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += float64(r.At(i, k) * r.At(i, k))
		}
		norm = math.Sqrt(norm)
		if norm <= tiny*scale {
			return nil, fmt.Errorf("%w: column %d is numerically rank deficient", ErrSingular, k)
		}
		alpha := -norm
		if r.At(k, k) < 0 {
			alpha = norm
		}
		var vnorm2 float64
		for i := k; i < m; i++ {
			v[i] = r.At(i, k)
			if i == k {
				v[i] -= alpha
			}
			vnorm2 += float64(v[i] * v[i])
		}
		if vnorm2 <= 0 {
			continue // column already triangular
		}
		// Apply H = I − 2vvᵀ/‖v‖² to R's remaining columns and to qtb.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += float64(v[i] * r.At(i, j))
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Add(i, j, -f*v[i])
			}
		}
		var dot float64
		for i := k; i < m; i++ {
			dot += float64(v[i] * qtb[i])
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			qtb[i] -= float64(f * v[i])
		}
	}
	// Back substitution on the upper-triangular R (top n rows).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= float64(r.At(i, j) * x[j])
		}
		d := r.At(i, i)
		if math.Abs(d) <= tiny*scale {
			return nil, fmt.Errorf("%w: zero diagonal at %d after factorization", ErrSingular, i)
		}
		x[i] = s / d
	}
	return x, nil
}
