package regcube

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestFullPipelineIntegration drives the complete production workflow
// through the public API only: generate → persist to CSV → reload → cube
// with both algorithms → navigate → persist results → reload → verify.
func TestFullPipelineIntegration(t *testing.T) {
	// 1. Generate a workload and persist it.
	spec, err := ParseDatasetSpec("D3L2C4T1K")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(DatasetConfig{Spec: spec, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteDatasetCSV(&csvBuf, ds); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and verify the reload cubes identically to the original.
	inputs, err := ReadDatasetCSV(&csvBuf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	thr := GlobalThreshold(ds.CalibrateThreshold(0.02))
	orig, err := MOCubing(ds.Schema, ds.Inputs, thr)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := MOCubing(ds.Schema, inputs, thr)
	if err != nil {
		t.Fatal(err)
	}
	if orig.NumExceptions() != reloaded.NumExceptions() {
		t.Fatalf("CSV round trip changed exceptions: %d vs %d",
			orig.NumExceptions(), reloaded.NumExceptions())
	}

	// 3. Popular-path confirms a subset of m/o-cubing's exceptions.
	lattice := NewLattice(ds.Schema)
	pp, err := PopularPath(ds.Schema, inputs, thr, lattice.DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pp.ExceptionCells() {
		key, isb := c.Key, c.ISB
		want, ok := orig.Exception(key)
		if !ok || math.Abs(want.Slope-isb.Slope) > 1e-9 {
			t.Fatalf("popular-path exception %v not confirmed", key)
		}
	}

	// 4. Navigate: every supporter of the steepest o-cell is a genuine
	// exception descendant.
	view := NewResultView(orig)
	obs := view.TopObservations(1)
	if len(obs) != 1 {
		t.Fatal("no observation deck")
	}
	for _, sup := range view.Supporters(obs[0].Key) {
		if _, ok := orig.Exception(sup.Key); !ok {
			t.Fatalf("supporter %v is not a retained exception", sup.Key)
		}
	}

	// 5. Persist the result and reload; navigation still works.
	var resBuf bytes.Buffer
	if err := WriteResult(&resBuf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&resBuf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	view2 := NewResultView(back)
	top1 := view.TopExceptions(10)
	top2 := view2.TopExceptions(10)
	if len(top1) != len(top2) {
		t.Fatal("reloaded view ranks differently")
	}
	for i := range top1 {
		if top1[i].Key != top2[i].Key {
			t.Fatalf("rank %d differs after persistence", i)
		}
	}
}

// TestStreamToBatchToDeltaIntegration drives the online engine's slope-change
// alerts, then cross-checks them against batch DeltaCubing of the same two
// units: the o-cells the stream alerts on are the delta cube's o-layer
// exceptions, and the drill finds the ramping m-cell below them.
func TestStreamToBatchToDeltaIntegration(t *testing.T) {
	h, err := NewFanoutHierarchy("m", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Dimension{Name: "m", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	det := DeltaDetector{MinSlopeChange: 0.5}
	eng, err := NewStreamEngine(StreamConfig{
		Schema:       schema,
		TicksPerUnit: 6,
		Threshold:    GlobalThreshold(1e9),
		Delta:        &det,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unit 0: flat. Unit 1: cell 4 ramps.
	var series [2][9][]float64
	for tick := int64(0); tick < 12; tick++ {
		for m := int32(0); m < 9; m++ {
			v := 1.0
			if tick >= 6 && m == 4 {
				v = float64(tick-6) * 2
			}
			series[tick/6][m] = append(series[tick/6][m], v)
			if _, err := eng.Ingest([]int32{m}, tick, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	final, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// No slope passes the 1e9 threshold: every alert is a slope change.
	alerted := map[CellKey]bool{}
	for _, a := range final.Alerts {
		alerted[a.Cell] = true
	}

	var windows [2][]Input
	for u := range windows {
		for m := int32(0); m < 9; m++ {
			s, err := NewSeries(int64(u*6), series[u][m])
			if err != nil {
				t.Fatal(err)
			}
			isb, err := Fit(s)
			if err != nil {
				t.Fatal(err)
			}
			windows[u] = append(windows[u], Input{Members: []int32{m}, Measure: isb})
		}
	}
	delta, err := DeltaCubing(schema, windows[1], windows[0], det)
	if err != nil {
		t.Fatal(err)
	}
	changed := map[CellKey]bool{}
	for key := range delta.Exceptions {
		if key.Cuboid.Equal(schema.OLayer()) {
			changed[key] = true
		}
	}
	if len(alerted) != 1 || !reflect.DeepEqual(alerted, changed) {
		t.Fatalf("stream slope-change alerts %v, batch delta o-layer exceptions %v", alerted, changed)
	}
	dc, ok := delta.Exceptions[NewCellKeyForTest(schema, 4)]
	if !ok {
		t.Fatalf("ramping cell missing from delta exceptions: %+v", delta.Exceptions)
	}
	if dc.SlopeChange() < 1.5 {
		t.Fatalf("slope change = %g", dc.SlopeChange())
	}
}

// NewCellKeyForTest builds an m-layer cell key (exported-test helper).
func NewCellKeyForTest(s *Schema, member int32) CellKey {
	key := CellKey{Cuboid: s.MLayer()}
	key.Members[0] = member
	return key
}
