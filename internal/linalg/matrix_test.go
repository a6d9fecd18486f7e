package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Fatalf("At(0,1) = %g, want 7.5", got)
	}
}

func TestBoundsCheckPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.At(2, 0)
}

func TestIdentityMul(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	id := Identity(3)
	prod, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if prod.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 2 || c.Cols() != 4 {
		t.Fatalf("product shape = %dx%d, want 2x4", c.Rows(), c.Cols())
	}
	if _, err := b.Mul(a); err == nil {
		t.Fatal("expected dimension error for 3x4 · 2x3")
	}
}

func TestMulKnownProduct(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != -2 || v[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestAccumulateInPlace(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{10, 20}, {30, 40}})
	if err := a.AccumulateInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 11 || a.At(1, 1) != 44 {
		t.Fatalf("accumulate failed: %v", a)
	}
	if b.At(1, 1) != 40 {
		t.Fatal("AccumulateInPlace must not mutate its argument")
	}
	if err := a.AccumulateInPlace(NewMatrix(1, 2)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, -2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must be deep")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = L·Lᵀ with L = [[2,0],[1,3]] → A = [[4,2],[2,10]].
	a, _ := NewMatrixFromRows([][]float64{{4, 2}, {2, 10}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) || !almostEq(l.At(1, 1), 3, 1e-12) {
		t.Fatalf("L = %v", l)
	}
	if l.At(0, 1) != 0 {
		t.Fatal("upper part of L must be zero")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD")
	}
	rect := NewMatrix(2, 3)
	if _, err := Cholesky(rect); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSolveCholeskyAndGaussAgree(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{6, 2, 1}, {2, 5, 2}, {1, 2, 4}})
	b := []float64{1, 2, 3}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveCholesky(l, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := SolveGauss(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-10) {
			t.Fatalf("solutions disagree: %v vs %v", x1, x2)
		}
	}
	// Verify residual.
	ax, _ := a.MulVec(x1)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-10) {
			t.Fatalf("A·x = %v, want %v", ax, b)
		}
	}
}

func TestSolveGaussNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a, _ := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveGauss(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestSolveGaussSingular(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveGauss(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
	zero := NewMatrix(2, 2)
	if _, err := SolveGauss(zero, []float64{0, 0}); err == nil {
		t.Fatal("expected ErrSingular for zero matrix")
	}
}

func TestSolveGaussShapeErrors(t *testing.T) {
	rect := NewMatrix(2, 3)
	if _, err := SolveGauss(rect, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error for non-square matrix")
	}
	sq := Identity(2)
	if _, err := SolveGauss(sq, []float64{1}); err == nil {
		t.Fatal("expected dimension error for rhs length")
	}
	if _, err := SolveCholesky(Identity(2), []float64{1}); err == nil {
		t.Fatal("expected dimension error for Cholesky rhs length")
	}
}

func TestSolveSPDFallsBack(t *testing.T) {
	// Indefinite but nonsingular: Cholesky fails, Gauss succeeds.
	a, _ := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveSPD(a, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 6, 1e-12) || !almostEq(x[1], 5, 1e-12) {
		t.Fatalf("x = %v, want [6 5]", x)
	}
}

func TestInvert(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-10) {
				t.Fatalf("A·A⁻¹(%d,%d) = %g", i, j, prod.At(i, j))
			}
		}
	}
	sing, _ := NewMatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Invert(sing); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
	if _, err := Invert(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestDotNorm(t *testing.T) {
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil || d != 32 {
		t.Fatalf("Dot = %g, err = %v", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMaxAbs(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{-9, 2}, {3, 4}})
	if a.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %g, want 9", a.MaxAbs())
	}
}

func TestStringRendering(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}})
	if s := a.String(); s != "[1 2]\n" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: for random SPD matrices A = BᵀB + n·I, SolveSPD returns x with
// small residual ‖Ax-b‖.
func TestSolveSPDPropertyResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		bm := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bm.Set(i, j, r.NormFloat64())
			}
		}
		a, _ := bm.Transpose().Mul(bm)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // enforce positive definiteness
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64() * 10
		}
		x, err := SolveSPD(a, rhs)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		for i := range rhs {
			if !almostEq(ax[i], rhs[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky reconstructs A = L·Lᵀ for random SPD matrices.
func TestCholeskyPropertyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		bm := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bm.Set(i, j, r.NormFloat64())
			}
		}
		a, _ := bm.Transpose().Mul(bm)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		back, _ := l.Mul(l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(back.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
