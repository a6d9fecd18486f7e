package regcube

import (
	"math"
	"testing"
)

// The facade tests double as end-to-end integration tests driven purely
// through the public API.

func TestFacadeFitAndAggregate(t *testing.T) {
	s1, err := NewSeries(0, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSeries(0, []float64{4, 3, 2, 1})
	i1, err := Fit(s1)
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := Fit(s2)
	sum, err := AggregateStandard(i1, i2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Slope) > 1e-12 {
		t.Fatalf("slopes 1 and -1 must cancel, got %g", sum.Slope)
	}
	if math.Abs(sum.Mean()-5) > 1e-9 {
		t.Fatalf("mean = %g, want 5", sum.Mean())
	}
	// Time aggregation through the facade.
	s3, _ := NewSeries(4, []float64{5, 6, 7, 8})
	i3, _ := Fit(s3)
	whole, err := AggregateTime(i1, i3)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := NewSeries(0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	direct, _ := Fit(full)
	if math.Abs(whole.Slope-direct.Slope) > 1e-9 {
		t.Fatalf("time agg slope %g vs direct %g", whole.Slope, direct.Slope)
	}
}

func TestFacadeEndToEndCubing(t *testing.T) {
	spec, err := ParseDatasetSpec("D2L2C3T200")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(DatasetConfig{Spec: spec, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MOCubing(ds.Schema, ds.Inputs, GlobalThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOCells() == 0 {
		t.Fatal("no o-layer cells")
	}
}

func TestFacadeStreamEngine(t *testing.T) {
	h, err := NewFanoutHierarchy("loc", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Dimension{Name: "loc", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewStreamEngine(StreamConfig{
		Schema:       schema,
		TicksPerUnit: 4,
		Threshold:    GlobalThreshold(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tk := int64(0); tk < 4; tk++ {
		if _, err := eng.Ingest([]int32{0}, tk, 2*float64(tk)); err != nil {
			t.Fatal(err)
		}
	}
	ur, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ur.Result == nil || len(ur.Alerts) == 0 {
		t.Fatal("steep stream must alert")
	}
}

func TestFacadeTiltFrame(t *testing.T) {
	f, err := NewFrame(CalendarFrameLevels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.SlotCapacity() != 71 {
		t.Fatalf("capacity = %d, want 71", f.SlotCapacity())
	}
	lf, err := NewFrame(LogarithmicFrameLevels(3, 4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Levels() != 3 {
		t.Fatal("log frame levels")
	}
}

func TestFacadeFolding(t *testing.T) {
	s, _ := NewSeries(0, []float64{1, 2, 3, 4, 5, 6})
	folded, err := Fold(s, 2, FoldAvg)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Len() != 3 || folded.Values[0] != 1.5 {
		t.Fatalf("folded = %v", folded.Values)
	}
	isb, _ := Fit(s)
	closed, err := FoldISB(isb, 2, FoldAvg)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := Fit(folded)
	if math.Abs(closed.Slope-direct.Slope) > 1e-9 {
		t.Fatalf("FoldISB slope %g vs direct %g", closed.Slope, direct.Slope)
	}
	for _, f := range []FoldFunc{FoldSum, FoldMin, FoldMax, FoldLast} {
		if _, err := Fold(s, 2, f); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

func TestFacadeMLR(t *testing.T) {
	m := NewMLR(LinearBasis(2))
	for i := 0; i < 20; i++ {
		x := float64(i)
		if err := m.Observe([]float64{x, x * x}, 1+2*x+0.5*x*x); err != nil {
			t.Fatal(err)
		}
	}
	md, err := m.Fit()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 0.5} {
		if math.Abs(md.Coef[i]-want) > 1e-6 {
			t.Fatalf("coef[%d] = %g, want %g", i, md.Coef[i], want)
		}
	}
	// Merge through the facade.
	a, b := NewMLR(TimeBasis()), NewMLR(TimeBasis())
	for i := 0; i < 10; i++ {
		_ = a.Observe([]float64{float64(i)}, float64(i))
		_ = b.Observe([]float64{float64(10 + i)}, float64(10+i))
	}
	merged, err := MergeMLRTime(a, b)
	if err != nil {
		t.Fatal(err)
	}
	md2, err := merged.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(md2.Coef[1]-1) > 1e-9 {
		t.Fatalf("merged slope = %g, want 1", md2.Coef[1])
	}
	// Standard merge via facade.
	c, d := NewMLR(TimeBasis()), NewMLR(TimeBasis())
	for i := 0; i < 5; i++ {
		_ = c.Observe([]float64{float64(i)}, 1)
		_ = d.Observe([]float64{float64(i)}, 2)
	}
	ms, err := MergeMLRStandard(1e-9, c, d)
	if err != nil {
		t.Fatal(err)
	}
	md3, err := ms.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(md3.Coef[0]-3) > 1e-9 {
		t.Fatalf("standard-merged intercept = %g, want 3", md3.Coef[0])
	}
}

func TestFacadeBases(t *testing.T) {
	if PolynomialBasis(3).Dim != 4 {
		t.Fatal("poly dim")
	}
	if LogBasis().Dim != 2 || ExpBasis(0.5).Dim != 2 || TimeBasis().Dim != 2 {
		t.Fatal("basis dims")
	}
}

func TestFacadeExceptionHelpers(t *testing.T) {
	if !IsException(ISB{Slope: -2}, 1) || IsException(ISB{Slope: 0.5}, 1) {
		t.Fatal("IsException through facade")
	}
	thr := PerCuboidThreshold{Default: 1}
	if thr.Threshold(Cuboid{}) != 1 {
		t.Fatal("per-cuboid default")
	}
	pd := PerDepthThreshold{Base: 2, Scale: 1}
	if pd.Threshold(Cuboid{}) != 2 {
		t.Fatal("per-depth base")
	}
	delta := DeltaDetector{MinSlopeChange: 1}
	if !delta.Exceptional(ISB{Slope: 2}, ISB{Slope: 0}, true) {
		t.Fatal("delta detector")
	}
}

func TestFacadeNamedHierarchy(t *testing.T) {
	h := NewNamedHierarchy("region")
	if err := h.AddLevel([]string{"east", "west"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLevel([]string{"nyc", "sf"}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Dimension{Name: "region", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if schema.CuboidCount() != 2 {
		t.Fatalf("cuboids = %d", schema.CuboidCount())
	}
}

func TestFacadeResidualsAndAccumulator(t *testing.T) {
	s, _ := NewSeries(0, []float64{1, 2, 3})
	isb, _ := Fit(s)
	st, err := Residuals(s, isb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.R2-1) > 1e-9 {
		t.Fatalf("R2 = %g", st.R2)
	}
	acc := NewAccumulator(0)
	for i, v := range s.Values {
		if err := acc.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Slope-isb.Slope) > 1e-12 {
		t.Fatal("accumulator disagrees with batch fit")
	}
}
