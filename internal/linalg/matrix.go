// Package linalg provides the small dense linear-algebra kernel used by the
// multiple linear regression extension of the regression cube (paper §6.2).
//
// The paper's general theory represents a multiple linear regression by its
// normal-equation sufficient statistics (XᵀX, Xᵀy). Solving those normal
// equations needs a symmetric positive (semi-)definite solver; this package
// supplies Cholesky factorization with a pivoted Gauss-Jordan fallback,
// built only on the standard library.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNotSPD is returned by Cholesky when the matrix is not positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
// It panics if either dimension is non-positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length. The data is copied.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrDimension)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at (i, j). v is rounded first, so a product
// passed in never fuses with the sum (DESIGN §6.3).
func (m *Matrix) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += float64(v)
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// AccumulateInPlace adds other into m element-wise.
func (m *Matrix) AccumulateInPlace(other *Matrix) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("%w: %dx%d += %dx%d", ErrDimension, m.rows, m.cols, other.rows, other.cols)
	}
	for i := range m.data {
		m.data[i] += other.data[i]
	}
	return nil
}

// Mul returns m·other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDimension, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowOther := other.data[k*other.cols : (k+1)*other.cols]
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			for j, b := range rowOther {
				rowOut[j] += float64(a * b)
			}
		}
	}
	return out, nil
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrDimension, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += float64(a * v[j])
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// MaxAbs returns the largest absolute element value (∞-norm of the data).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for diagnostics.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
