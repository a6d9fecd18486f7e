package regcube

import (
	"bytes"
	"math"
	"testing"
)

// Facade coverage for the extension surfaces: the alternative cubing engine,
// persistence, result navigation, unit frames, and MLR inference.

func facadeDataset(t *testing.T) *Dataset {
	t.Helper()
	spec, err := ParseDatasetSpec("D2L2C3T300")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(DatasetConfig{Spec: spec, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// The facade's alternative to MOCubing is popular-path cubing: the same
// o-layer, and a subset of the exceptions with the same measures.
func TestFacadeAlternativeEngines(t *testing.T) {
	ds := facadeDataset(t)
	thr := GlobalThreshold(ds.CalibrateThreshold(0.05))
	mo, err := MOCubing(ds.Schema, ds.Inputs, thr)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PopularPath(ds.Schema, ds.Inputs, thr, NewLattice(ds.Schema).DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumOCells() != mo.NumOCells() {
		t.Fatalf("o-layers: popular-path %d cells, m/o-cubing %d", pp.NumOCells(), mo.NumOCells())
	}
	for _, c := range mo.OCells() {
		key, isb := c.Key, c.ISB
		if got, ok := pp.OCell(key); !ok || math.Abs(got.Slope-isb.Slope) > 1e-9 {
			t.Fatalf("o-cell %v: popular-path %v, m/o-cubing %v", key, got, isb)
		}
	}
	if pp.NumExceptions() == 0 || pp.NumExceptions() > mo.NumExceptions() {
		t.Fatalf("exceptions: popular-path %d, m/o-cubing %d", pp.NumExceptions(), mo.NumExceptions())
	}
	for _, c := range pp.ExceptionCells() {
		key, isb := c.Key, c.ISB
		if want, ok := mo.Exception(key); !ok || math.Abs(want.Slope-isb.Slope) > 1e-9 {
			t.Fatalf("popular-path exception %v is not m/o-cubing's", key)
		}
	}
}

func TestFacadePersistence(t *testing.T) {
	ds := facadeDataset(t)
	res, err := MOCubing(ds.Schema, ds.Inputs, GlobalThreshold(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumExceptions() != res.NumExceptions() {
		t.Fatal("result round trip lost cells")
	}

	var csvBuf bytes.Buffer
	if err := WriteDatasetCSV(&csvBuf, ds); err != nil {
		t.Fatal(err)
	}
	inputs, err := ReadDatasetCSV(&csvBuf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != len(ds.Inputs) {
		t.Fatal("dataset round trip lost tuples")
	}
}

func TestFacadeStreamCheckpoint(t *testing.T) {
	h, _ := NewFanoutHierarchy("A", 2, 2)
	schema, err := NewSchema(Dimension{Name: "A", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *StreamEngine {
		e, err := NewStreamEngine(StreamConfig{
			Schema: schema, TicksPerUnit: 3, Threshold: GlobalThreshold(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := mk()
	for tk := int64(0); tk < 4; tk++ {
		if _, err := a.Ingest([]int32{0}, tk, float64(tk)); err != nil {
			t.Fatal(err)
		}
	}
	acp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, acp); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if b.Unit() != a.Unit() || b.ActiveCells() != a.ActiveCells() {
		t.Fatal("restored engine state differs")
	}
}

func TestFacadeResultView(t *testing.T) {
	ds := facadeDataset(t)
	res, err := MOCubing(ds.Schema, ds.Inputs, GlobalThreshold(ds.CalibrateThreshold(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	v := NewResultView(res)
	top := v.TopExceptions(5)
	if len(top) == 0 {
		t.Fatal("no top exceptions")
	}
	obs := v.TopObservations(1)
	if len(obs) != 1 {
		t.Fatal("no observations")
	}
	_ = v.Supporters(obs[0].Key)
	summary := v.Summary()
	if len(summary) != NewLattice(ds.Schema).Size() {
		t.Fatal("summary must cover the lattice")
	}
}

func TestFacadeUnitFrame(t *testing.T) {
	uf, err := NewUnitFrame([]FrameLevel{
		{Name: "q", Multiple: 1, Slots: 4},
		{Name: "h", Multiple: 4, Slots: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		isb := ISB{Tb: int64(u * 15), Te: int64(u*15 + 14), Base: 1, Slope: 0.1}
		if err := uf.Push(isb); err != nil {
			t.Fatal(err)
		}
	}
	if uf.Completed(1) != 2 {
		t.Fatalf("hours completed = %d", uf.Completed(1))
	}
	got, err := uf.Query(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Slope-0.1) > 1e-9 {
		t.Fatalf("hour slope = %g", got.Slope)
	}
}

func TestFacadeMLRInference(t *testing.T) {
	m := NewMLR(TimeBasis())
	for i := 0; i < 20; i++ {
		if err := m.Observe([]float64{float64(i)}, 1+0.5*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	model, inf, err := m.Infer()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Coef[1]-0.5) > 1e-9 {
		t.Fatal("slope wrong")
	}
	var _ *MLRInference = inf
	lo, hi := inf.ConfidenceInterval(model, 1, 1.96)
	// A perfect fit has ~zero-width CI around the estimate itself.
	if lo > model.Coef[1] || hi < model.Coef[1] || hi-lo > 1e-6 {
		t.Fatalf("CI [%g,%g] must be tight around %g", lo, hi, model.Coef[1])
	}
}
