package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timeseries"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Example 2 of the paper: z(t) over [0,9]. Expected fit computed by hand:
// z̄ = 0.686, SVS(10) = 82.5, β̂ = 1.99/82.5, α̂ = z̄ − β̂·4.5.
func TestExample2Fit(t *testing.T) {
	s := timeseries.MustNew(0, []float64{0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56})
	isb, err := Fit(s)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := 1.99 / 82.5
	wantBase := 0.686 - wantSlope*4.5
	if !almostEq(isb.Slope, wantSlope, 1e-12) {
		t.Fatalf("slope = %v, want %v", isb.Slope, wantSlope)
	}
	if !almostEq(isb.Base, wantBase, 1e-12) {
		t.Fatalf("base = %v, want %v", isb.Base, wantBase)
	}
	if isb.Tb != 0 || isb.Te != 9 {
		t.Fatalf("interval = [%d,%d]", isb.Tb, isb.Te)
	}
}

// Figure 2 of the paper gives the ISBs of z1, z2, and z1+z2; by Theorem 3.2
// the parameters must add. We use the printed values as golden vectors.
func TestFigure2Aggregation(t *testing.T) {
	z1 := ISB{Tb: 0, Te: 19, Base: 0.540995, Slope: 0.0318379}
	z2 := ISB{Tb: 0, Te: 19, Base: 0.294875, Slope: 0.0493375}
	agg, err := AggregateStandard(z1, z2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(agg.Base, 0.83587, 1e-5) {
		t.Fatalf("base = %v, want 0.83587", agg.Base)
	}
	if !almostEq(agg.Slope, 0.0811754, 1e-6) {
		t.Fatalf("slope = %v, want 0.0811754", agg.Slope)
	}
}

// Figure 3 of the paper: segments [0,9] and [10,19] with printed ISBs must
// aggregate on the time dimension to the printed total ISB (Theorem 3.3).
func TestFigure3TimeAggregation(t *testing.T) {
	seg1 := ISB{Tb: 0, Te: 9, Base: 0.582995, Slope: 0.0240189}
	seg2 := ISB{Tb: 10, Te: 19, Base: 0.459046, Slope: 0.047474}
	agg, err := AggregateTime(seg1, seg2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(agg.Base, 0.509033, 1e-5) {
		t.Fatalf("base = %v, want 0.509033", agg.Base)
	}
	if !almostEq(agg.Slope, 0.0431806, 1e-6) {
		t.Fatalf("slope = %v, want 0.0431806", agg.Slope)
	}
	if agg.Tb != 0 || agg.Te != 19 {
		t.Fatalf("interval = [%d,%d]", agg.Tb, agg.Te)
	}
}

func TestSVSClosedForm(t *testing.T) {
	// Direct check of Lemma 3.2 against brute force for several n and i.
	for _, n := range []int64{1, 2, 3, 10, 31, 100} {
		for _, start := range []int64{0, 5, -7} {
			var mean float64
			for j := int64(0); j < n; j++ {
				mean += float64(start + j)
			}
			mean /= float64(n)
			var brute float64
			for j := int64(0); j < n; j++ {
				d := float64(start+j) - mean
				brute += d * d
			}
			if !almostEq(SVS(n), brute, 1e-9) && !(SVS(n) == 0 && brute == 0) {
				t.Fatalf("SVS(%d) = %g, brute(start=%d) = %g", n, SVS(n), start, brute)
			}
		}
	}
}

func TestFitDegenerateCases(t *testing.T) {
	single := timeseries.MustNew(42, []float64{3.5})
	isb, err := Fit(single)
	if err != nil {
		t.Fatal(err)
	}
	if isb.Slope != 0 || isb.Base != 3.5 {
		t.Fatalf("single-point fit = %v", isb)
	}
	if isb.N() != 1 {
		t.Fatalf("N = %d", isb.N())
	}

	if _, err := Fit(nil); err == nil {
		t.Fatal("expected ErrEmpty for nil series")
	}
	bad := timeseries.MustNew(0, []float64{1, math.NaN()})
	if _, err := Fit(bad); err == nil {
		t.Fatal("expected ErrNonFinite")
	}
}

func TestFitConstantSeries(t *testing.T) {
	s := timeseries.Constant(0, 20, 5)
	isb := MustFit(s)
	if !almostEq(isb.Slope, 0, 1e-12) && isb.Slope != 0 {
		t.Fatalf("slope of constant series = %g", isb.Slope)
	}
	if !almostEq(isb.Base, 5, 1e-12) {
		t.Fatalf("base = %g", isb.Base)
	}
}

func TestFitExactLine(t *testing.T) {
	s := timeseries.Ramp(7, 15, 2.5, -0.75)
	isb := MustFit(s)
	if !almostEq(isb.Slope, -0.75, 1e-10) || !almostEq(isb.Base, 2.5, 1e-10) {
		t.Fatalf("fit of exact line = %v", isb)
	}
	// The fitted curve must reproduce the input exactly.
	ev := isb.Eval()
	for i := range ev.Values {
		if !almostEq(ev.Values[i], s.Values[i], 1e-10) {
			t.Fatalf("Eval[%d] = %g, want %g", i, ev.Values[i], s.Values[i])
		}
	}
}

func TestMustFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFit(nil)
}

func TestISBAccessors(t *testing.T) {
	r := ISB{Tb: 0, Te: 9, Base: 1, Slope: 0.5}
	if r.TBar() != 4.5 {
		t.Fatalf("TBar = %g", r.TBar())
	}
	if !almostEq(r.Mean(), 1+0.5*4.5, 1e-12) {
		t.Fatalf("Mean = %g", r.Mean())
	}
	if !almostEq(r.Sum(), 10*(1+0.5*4.5), 1e-12) {
		t.Fatalf("Sum = %g", r.Sum())
	}
	if r.At(4) != 3 {
		t.Fatalf("At(4) = %g", r.At(4))
	}
	if r.Interval() != (timeseries.Interval{Tb: 0, Te: 9}) {
		t.Fatal("Interval mismatch")
	}
	if r.String() != "([0,9], 1, 0.5)" {
		t.Fatalf("String = %q", r.String())
	}
	if !r.IsFinite() {
		t.Fatal("finite ISB misreported")
	}
	if (ISB{Base: math.NaN()}).IsFinite() {
		t.Fatal("NaN base not caught")
	}
	if (ISB{Slope: math.Inf(1)}).IsFinite() {
		t.Fatal("Inf slope not caught")
	}
}

// The mean preservation property: Fit's line passes through (t̄, z̄), so
// ISB.Sum() recovers the raw series total exactly.
func TestSumRecoversRawTotal(t *testing.T) {
	g := timeseries.NewSynth(21)
	s := g.Linear(100, 57, 3, -0.2, 2)
	isb := MustFit(s)
	if !almostEq(isb.Sum(), s.Sum(), 1e-9) {
		t.Fatalf("ISB.Sum = %g, raw = %g", isb.Sum(), s.Sum())
	}
}

func TestIntValRoundTrip(t *testing.T) {
	r := ISB{Tb: 3, Te: 17, Base: -1.25, Slope: 0.4}
	back := r.ToIntVal().ToISB()
	if !almostEq(back.Base, r.Base, 1e-12) || !almostEq(back.Slope, r.Slope, 1e-12) ||
		back.Tb != r.Tb || back.Te != r.Te {
		t.Fatalf("round trip: %v -> %v", r, back)
	}
}

func TestIntValSinglePoint(t *testing.T) {
	v := IntVal{Tb: 5, Te: 5, Zb: 2, Ze: 2}
	r := v.ToISB()
	if r.Slope != 0 || r.Base != 2 {
		t.Fatalf("single-point IntVal -> %v", r)
	}
}

func TestAggregateStandardErrors(t *testing.T) {
	if _, err := AggregateStandard(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
	a := ISB{Tb: 0, Te: 9}
	b := ISB{Tb: 0, Te: 8}
	if _, err := AggregateStandard(a, b); err == nil {
		t.Fatal("expected interval mismatch")
	}
}

func TestAggregateTimeErrors(t *testing.T) {
	if _, err := AggregateTime(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
	a := ISB{Tb: 0, Te: 9}
	gap := ISB{Tb: 11, Te: 15}
	if _, err := AggregateTime(a, gap); err == nil {
		t.Fatal("expected adjacency error")
	}
}

func TestAggregateTimeSingleSegmentIdentity(t *testing.T) {
	r := ISB{Tb: 4, Te: 13, Base: 2, Slope: -0.3}
	out, err := AggregateTime(r)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(out.Base, r.Base, 1e-10) || !almostEq(out.Slope, r.Slope, 1e-10) {
		t.Fatalf("identity aggregation changed ISB: %v -> %v", r, out)
	}
}

func TestAggregateTimeSinglePointSegments(t *testing.T) {
	// Three one-tick segments forming the line z(t)=t over [0,2].
	segs := []ISB{
		{Tb: 0, Te: 0, Base: 0, Slope: 0},
		{Tb: 1, Te: 1, Base: 1, Slope: 0},
		{Tb: 2, Te: 2, Base: 2, Slope: 0},
	}
	out, err := AggregateTime(segs...)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(out.Slope, 1, 1e-10) || !almostEq(out.Base, 0, 1e-10) {
		t.Fatalf("aggregate of point segments = %v, want slope 1 base 0", out)
	}
}

func TestAggregateTimeSinglePointTotal(t *testing.T) {
	out, err := AggregateTime(ISB{Tb: 7, Te: 7, Base: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Base != 3 || out.Slope != 0 {
		t.Fatalf("got %v", out)
	}
}

// Theorem 3.1(b): the independence examples from the proof. Pairs of series
// that agree on a proper ISB subset must disagree on the rest.
func TestISBComponentIndependence(t *testing.T) {
	// tb: z1 over [0,2] vs z2 over [1,2], both all-zero.
	z1 := MustFit(timeseries.MustNew(0, []float64{0, 0, 0}))
	z2 := MustFit(timeseries.MustNew(1, []float64{0, 0}))
	if z1.Te != z2.Te || z1.Base != z2.Base || z1.Slope != z2.Slope {
		t.Fatal("proof setup: z1, z2 should agree on te, base, slope")
	}
	if z1.Tb == z2.Tb {
		t.Fatal("tb must distinguish them")
	}
	// base: 0,0 vs 1,1 over [0,1] share slope but not base.
	a := MustFit(timeseries.MustNew(0, []float64{0, 0}))
	b := MustFit(timeseries.MustNew(0, []float64{1, 1}))
	if a.Slope != b.Slope {
		t.Fatal("slopes should agree")
	}
	if a.Base == b.Base {
		t.Fatal("bases must differ")
	}
	// slope: 0,0 vs 0,1 over [0,1] share base but not slope.
	c := MustFit(timeseries.MustNew(0, []float64{0, 1}))
	if !almostEq(a.Base, c.Base, 1e-12) {
		t.Fatalf("bases should agree: %g vs %g", a.Base, c.Base)
	}
	if a.Slope == c.Slope {
		t.Fatal("slopes must differ")
	}
}

// Property: Theorem 3.2 — aggregating ISBs on a standard dimension equals
// fitting the pointwise-summed raw series. Random series, random K.
func TestTheorem32Property(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		k := 1 + r.Intn(6)
		tb := int64(r.Intn(200) - 100)
		series := make([]*timeseries.Series, k)
		isbs := make([]ISB, k)
		for i := 0; i < k; i++ {
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = r.NormFloat64() * 10
			}
			series[i] = timeseries.MustNew(tb, vals)
			isbs[i] = MustFit(series[i])
		}
		sum, err := timeseries.Add(series...)
		if err != nil {
			return false
		}
		direct := MustFit(sum)
		agg, err := AggregateStandard(isbs...)
		if err != nil {
			return false
		}
		return almostEq(agg.Base, direct.Base, 1e-8) && almostEq(agg.Slope, direct.Slope, 1e-8)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Theorem 3.3 — aggregating ISBs on the time dimension equals
// fitting the concatenated raw series. Random series cut at random points.
func TestTheorem33Property(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(32))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(120)
		tb := int64(r.Intn(200) - 100)
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = r.NormFloat64() * 5
		}
		full := timeseries.MustNew(tb, vals)
		direct := MustFit(full)

		// Random partition into 1..6 contiguous segments (never more than
		// the n−1 available cut positions, or the draw below cannot
		// produce enough distinct cuts).
		maxK := 6
		if n-1 < maxK-1 {
			maxK = n // n ≥ 3, so maxK ≥ 3 segments still exercised
		}
		k := 1 + r.Intn(maxK)
		cuts := map[int64]bool{}
		for len(cuts) < k-1 {
			cuts[tb+1+int64(r.Intn(n-1))] = true // segment start positions
		}
		starts := []int64{tb}
		for t0 := tb + 1; t0 < tb+int64(n); t0++ {
			if cuts[t0] {
				starts = append(starts, t0)
			}
		}
		var isbs []ISB
		for i, s0 := range starts {
			e0 := full.Interval.Te
			if i+1 < len(starts) {
				e0 = starts[i+1] - 1
			}
			seg, err := full.Slice(s0, e0)
			if err != nil {
				return false
			}
			isbs = append(isbs, MustFit(seg))
		}
		agg, err := AggregateTime(isbs...)
		if err != nil {
			return false
		}
		return almostEq(agg.Base, direct.Base, 1e-7) && almostEq(agg.Slope, direct.Slope, 1e-7) &&
			agg.Tb == direct.Tb && agg.Te == direct.Te
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the two theorems commute — aggregating K series over a split
// time interval gives the same result whether standard- or time-dimension
// aggregation is applied first.
func TestTheoremsCommuteProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(33))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nLeft := 2 + r.Intn(30)
		nRight := 2 + r.Intn(30)
		k := 2 + r.Intn(4)
		tb := int64(r.Intn(50))
		mid := tb + int64(nLeft) - 1
		te := mid + int64(nRight)

		left := make([]*timeseries.Series, k)
		right := make([]*timeseries.Series, k)
		for i := 0; i < k; i++ {
			lv := make([]float64, nLeft)
			rv := make([]float64, nRight)
			for j := range lv {
				lv[j] = r.NormFloat64()
			}
			for j := range rv {
				rv[j] = r.NormFloat64()
			}
			left[i] = timeseries.MustNew(tb, lv)
			right[i] = timeseries.MustNew(mid+1, rv)
		}

		// Path A: standard-aggregate each half, then time-aggregate.
		var leftISBs, rightISBs []ISB
		for i := 0; i < k; i++ {
			leftISBs = append(leftISBs, MustFit(left[i]))
			rightISBs = append(rightISBs, MustFit(right[i]))
		}
		stdLeft, err := AggregateStandard(leftISBs...)
		if err != nil {
			return false
		}
		stdRight, err := AggregateStandard(rightISBs...)
		if err != nil {
			return false
		}
		pathA, err := AggregateTime(stdLeft, stdRight)
		if err != nil {
			return false
		}

		// Path B: time-aggregate each series, then standard-aggregate.
		var perSeries []ISB
		for i := 0; i < k; i++ {
			ti, err := AggregateTime(MustFit(left[i]), MustFit(right[i]))
			if err != nil {
				return false
			}
			perSeries = append(perSeries, ti)
		}
		pathB, err := AggregateStandard(perSeries...)
		if err != nil {
			return false
		}
		_ = te
		return almostEq(pathA.Base, pathB.Base, 1e-7) && almostEq(pathA.Slope, pathB.Slope, 1e-7)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: ISB ↔ IntVal round trip is exact for random ISBs.
func TestIntValRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(34))}
	f := func(tbRaw int16, span uint8, base, slope float64) bool {
		if math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(slope) || math.IsInf(slope, 0) {
			return true // skip pathological inputs
		}
		// Clamp magnitudes so float cancellation stays in tolerance.
		base = math.Mod(base, 1e6)
		slope = math.Mod(slope, 1e4)
		tb := int64(tbRaw)
		r := ISB{Tb: tb, Te: tb + int64(span), Base: base, Slope: slope}
		back := r.ToIntVal().ToISB()
		if span == 0 {
			// A one-tick interval cannot carry a slope: the round trip
			// normalizes to the single-point convention but must keep the
			// fitted value at that tick.
			return back.Slope == 0 && almostEq(back.At(tb), r.At(tb), 1e-7)
		}
		return almostEq(back.Base, r.Base, 1e-7) && almostEq(back.Slope, r.Slope, 1e-7)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestResiduals(t *testing.T) {
	// Exact line: RSS 0, R² 1.
	line := timeseries.Ramp(0, 10, 1, 2)
	isb := MustFit(line)
	st, err := Residuals(line, isb)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(st.RSS, 0, 1e-15) && st.RSS > 1e-15 {
		t.Fatalf("RSS = %g", st.RSS)
	}
	if !almostEq(st.R2, 1, 1e-9) {
		t.Fatalf("R2 = %g", st.R2)
	}

	// Constant series: TSS 0 and RSS 0 → R² defined as 1.
	c := timeseries.Constant(0, 5, 3)
	stc, err := Residuals(c, MustFit(c))
	if err != nil {
		t.Fatal(err)
	}
	if stc.R2 != 1 {
		t.Fatalf("R2 of perfect constant fit = %g", stc.R2)
	}

	// Mismatched interval errors.
	if _, err := Residuals(line, ISB{Tb: 0, Te: 4}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := Residuals(nil, isb); err == nil {
		t.Fatal("expected empty error")
	}

	// A series symmetric in time ({1,−1,−1,1}) fits slope 0, so the line
	// explains none of the variance: R² must be 0.
	wiggle := timeseries.MustNew(0, []float64{1, -1, -1, 1})
	flat := MustFit(wiggle)
	if flat.Slope != 0 {
		t.Fatalf("symmetric series slope = %g, want 0", flat.Slope)
	}
	stw, err := Residuals(wiggle, flat)
	if err != nil {
		t.Fatal(err)
	}
	if stw.R2 != 0 {
		t.Fatalf("R2 = %g, want 0", stw.R2)
	}
}

func TestResidualsDegenerateZeroFit(t *testing.T) {
	// TSS = 0 but RSS > 0 (deliberately wrong ISB): R² must be 0, not negative ∞.
	c := timeseries.Constant(0, 4, 2)
	st, err := Residuals(c, ISB{Tb: 0, Te: 3, Base: 0, Slope: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.R2 != 0 {
		t.Fatalf("R2 = %g, want 0", st.R2)
	}
}

// aggregateTimeTwoPass is Theorem 3.3 as AggregateTime computed it while it
// still copied the segments and kept their sums in a slice: the reference
// the allocation-free form must match bit for bit, since every tilt-frame
// promotion and every trend read goes through it and checkpoints are
// compared as bytes.
func aggregateTimeTwoPass(isbs []ISB) ISB {
	tb, te := isbs[0].Tb, isbs[len(isbs)-1].Te
	na := float64(te - tb + 1)
	sums := make([]float64, len(isbs))
	var sa float64
	for i, r := range isbs {
		sums[i] = r.Sum()
		sa += sums[i]
	}
	out := ISB{Tb: tb, Te: te}
	if na == 1 {
		out.Base = sa
		return out
	}
	denom := na*na*na - na
	var beta, prefix float64
	for i, r := range isbs {
		ni := float64(r.N())
		beta += (ni*ni*ni - ni) / denom * r.Slope
		beta += 6 * (2*prefix + ni - na) / denom * (na*sums[i] - ni*sa) / na
		prefix += ni
	}
	out.Slope = beta
	out.Base = sa/na - beta*(float64(tb+te)/2)
	return out
}

func TestAggregateTimeBitwiseStable(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		isbs := make([]ISB, 1+r.Intn(40))
		tb := int64(r.Intn(1 << 20))
		for i := range isbs {
			n := int64(1 + r.Intn(30))
			isbs[i] = ISB{Tb: tb, Te: tb + n - 1, Base: r.NormFloat64() * 1e3, Slope: r.NormFloat64()}
			tb += n
		}
		want := aggregateTimeTwoPass(isbs)
		got, err := AggregateTime(isbs...)
		if err != nil {
			t.Fatal(err)
		}
		viaFunc, err := AggregateTimeFunc(len(isbs), func(i int) ISB { return isbs[i] })
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []ISB{got, viaFunc} {
			if g.Tb != want.Tb || g.Te != want.Te ||
				math.Float64bits(g.Base) != math.Float64bits(want.Base) || math.Float64bits(g.Slope) != math.Float64bits(want.Slope) {
				t.Fatalf("trial %d: %v, the two-pass form gives %v", trial, g, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		isbs := [3]ISB{{Tb: 0, Te: 3, Base: 1}, {Tb: 4, Te: 7, Slope: 2}, {Tb: 8, Te: 11, Base: 3}}
		if _, err := AggregateTimeFunc(len(isbs), func(i int) ISB { return isbs[i] }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AggregateTimeFunc allocates %v times a call", allocs)
	}
}
