package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewInterval(t *testing.T) {
	s := MustNew(3, make([]float64, 7))
	iv := s.Interval
	if iv != (Interval{3, 9}) {
		t.Fatalf("interval = %s, want [3,9]", iv)
	}
	if iv.Len() != 7 {
		t.Fatalf("Len = %d, want 7", iv.Len())
	}
	if iv.Mid() != 6 {
		t.Fatalf("Mid = %g, want 6", iv.Mid())
	}
	if _, err := s.Slice(5, 4); !errors.Is(err, ErrInterval) {
		t.Fatalf("Slice(5, 4) err = %v, want ErrInterval for te < tb", err)
	}
}

func TestIntervalPredicates(t *testing.T) {
	a := Interval{0, 9}
	b := Interval{10, 19}
	if !a.Adjacent(b) {
		t.Fatal("[0,9] should be adjacent to [10,19]")
	}
	if a.Adjacent(Interval{11, 20}) {
		t.Fatal("gap must not count as adjacent")
	}
	if !a.Contains(0) || !a.Contains(9) || a.Contains(10) || a.Contains(-1) {
		t.Fatal("Contains is wrong at boundaries")
	}
	if !a.Equal(Interval{0, 9}) || a.Equal(b) {
		t.Fatal("Equal is wrong")
	}
	if a.String() != "[0,9]" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestNewSeries(t *testing.T) {
	s, err := New(5, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Interval.Equal(Interval{5, 7}) {
		t.Fatalf("interval = %s", s.Interval)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, err := New(0, nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, nil)
}

func TestAt(t *testing.T) {
	s := MustNew(10, []float64{1, 2, 3})
	v, err := s.At(11)
	if err != nil || v != 2 {
		t.Fatalf("At(11) = %g, %v", v, err)
	}
	if _, err := s.At(13); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := s.At(9); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestStats(t *testing.T) {
	s := MustNew(0, []float64{2, 4, 6, 8})
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Sum() != 20 {
		t.Fatalf("Sum = %g", s.Sum())
	}
	if s.Min() != 2 || s.Max() != 8 || s.Last() != 8 {
		t.Fatalf("Min/Max/Last = %g/%g/%g", s.Min(), s.Max(), s.Last())
	}
}

func TestStatsEmptyNaN(t *testing.T) {
	s := &Series{}
	for name, f := range map[string]func() float64{
		"Mean": s.Mean, "Min": s.Min, "Max": s.Max, "Last": s.Last,
	} {
		if !math.IsNaN(f()) {
			t.Fatalf("%s of empty series should be NaN", name)
		}
	}
	if s.Sum() != 0 {
		t.Fatal("Sum of empty series should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustNew(0, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone must copy values")
	}
}

func TestSlice(t *testing.T) {
	s := MustNew(0, []float64{0, 1, 2, 3, 4, 5})
	sub, err := s.Slice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Values[0] != 2 || sub.Values[2] != 4 {
		t.Fatalf("Slice = %v", sub.Values)
	}
	for _, bad := range [][2]int64{{-1, 3}, {2, 6}, {4, 2}} {
		if _, err := s.Slice(bad[0], bad[1]); err == nil {
			t.Fatalf("expected error for slice [%d,%d]", bad[0], bad[1])
		}
	}
}

func TestAdd(t *testing.T) {
	a := MustNew(0, []float64{1, 2, 3})
	b := MustNew(0, []float64{10, 20, 30})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, v := range want {
		if sum.Values[i] != v {
			t.Fatalf("sum[%d] = %g, want %g", i, sum.Values[i], v)
		}
	}
	if a.Values[0] != 1 {
		t.Fatal("Add must not mutate inputs")
	}
	c := MustNew(1, []float64{1, 2, 3})
	if _, err := Add(a, c); err == nil {
		t.Fatal("expected interval mismatch error")
	}
	if _, err := Add(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestConcat(t *testing.T) {
	a := MustNew(0, []float64{1, 2})
	b := MustNew(2, []float64{3})
	c := MustNew(3, []float64{4, 5})
	cat, err := Concat(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Interval.Equal(Interval{0, 4}) {
		t.Fatalf("interval = %s", cat.Interval)
	}
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if cat.Values[i] != want {
			t.Fatalf("cat[%d] = %g", i, cat.Values[i])
		}
	}
	gap := MustNew(5, []float64{9})
	if _, err := Concat(a, gap); err == nil {
		t.Fatal("expected adjacency error")
	}
	if _, err := Concat(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestScale(t *testing.T) {
	s := MustNew(0, []float64{1, -2})
	sc := s.Scale(3)
	if sc.Values[0] != 3 || sc.Values[1] != -6 {
		t.Fatalf("Scale = %v", sc.Values)
	}
	if s.Values[0] != 1 {
		t.Fatal("Scale must not mutate")
	}
}

func TestIsFinite(t *testing.T) {
	if !MustNew(0, []float64{1, 2}).IsFinite() {
		t.Fatal("finite series misreported")
	}
	if MustNew(0, []float64{1, math.NaN()}).IsFinite() {
		t.Fatal("NaN not caught")
	}
	if MustNew(0, []float64{math.Inf(1)}).IsFinite() {
		t.Fatal("Inf not caught")
	}
}

func TestSynthLinearDeterministic(t *testing.T) {
	a := NewSynth(1).Linear(0, 50, 1, 0.5, 0.1)
	b := NewSynth(1).Linear(0, 50, 1, 0.5, 0.1)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed must give identical series")
		}
	}
	c := NewSynth(2).Linear(0, 50, 1, 0.5, 0.1)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different series")
	}
}

func TestSynthLinearNoNoiseIsExact(t *testing.T) {
	s := NewSynth(3).Linear(5, 10, 2, 0.25, 0)
	for i, v := range s.Values {
		t64 := float64(5 + i)
		if math.Abs(v-(2+0.25*t64)) > 1e-12 {
			t.Fatalf("value[%d] = %g", i, v)
		}
	}
}

func TestConstantRamp(t *testing.T) {
	c := Constant(2, 4, 7)
	for _, v := range c.Values {
		if v != 7 {
			t.Fatal("Constant is not constant")
		}
	}
	r := Ramp(10, 3, 1, 2)
	if r.Values[0] != 21 || r.Values[2] != 25 {
		t.Fatalf("Ramp = %v", r.Values)
	}
}

// Property: Concat(Slice(s, tb, m), Slice(s, m+1, te)) == s for any split.
func TestSliceConcatRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		tb := int64(r.Intn(100) - 50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64()
		}
		s := MustNew(tb, vals)
		split := tb + int64(r.Intn(n-1)) // split point: last tick of first part
		left, err := s.Slice(tb, split)
		if err != nil {
			return false
		}
		right, err := s.Slice(split+1, s.Interval.Te)
		if err != nil {
			return false
		}
		cat, err := Concat(left, right)
		if err != nil {
			return false
		}
		if !cat.Interval.Equal(s.Interval) {
			return false
		}
		for i := range s.Values {
			if cat.Values[i] != s.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and the sum of means is the mean of sums.
func TestAddCommutativeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(12))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = r.NormFloat64(), r.NormFloat64()
		}
		sa, sb := MustNew(0, a), MustNew(0, b)
		ab, err1 := Add(sa, sb)
		ba, err2 := Add(sb, sa)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range ab.Values {
			if ab.Values[i] != ba.Values[i] {
				return false
			}
		}
		return math.Abs(ab.Mean()-(sa.Mean()+sb.Mean())) < 1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
