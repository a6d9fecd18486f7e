package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/tilt"
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

func smallSchema(t *testing.T) *cube.Schema {
	t.Helper()
	ha, _ := cube.NewFanoutHierarchy("A", 2, 2)
	hb, _ := cube.NewFanoutHierarchy("B", 2, 2)
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newEngine(t *testing.T, s *cube.Schema, thr float64) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Schema:       s,
		TicksPerUnit: 5,
		Threshold:    exception.Global(thr),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	s := smallSchema(t)
	cases := []Config{
		{TicksPerUnit: 5, Threshold: exception.Global(1)},
		{Schema: s, Threshold: exception.Global(1)},
		{Schema: s, TicksPerUnit: 5},
		{Schema: s, TicksPerUnit: 5, Threshold: exception.Global(1), TiltLevels: []tilt.Level{{Name: "unit", Slots: -1}}},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

func TestAlertKindString(t *testing.T) {
	if SlopeException.String() != "slope-exception" || SlopeChange.String() != "slope-change" {
		t.Fatal("alert kind names")
	}
	if AlertKind(9).String() == "" {
		t.Fatal("unknown alert kind must render")
	}
}

func TestIngestValidation(t *testing.T) {
	e := newEngine(t, smallSchema(t), 1)
	if _, err := e.Ingest([]int32{0}, 0, 1); err == nil {
		t.Fatal("expected member-count error")
	}
	if _, err := e.Ingest([]int32{0, 0}, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Per-cell duplicate tick.
	if _, err := e.Ingest([]int32{0, 0}, 0, 1); err == nil {
		t.Fatal("expected duplicate-tick error")
	}
	// Tick before the open unit.
	_, _ = e.Ingest([]int32{0, 0}, 7, 1) // crosses into unit 1
	if _, err := e.Ingest([]int32{1, 1}, 2, 1); err == nil {
		t.Fatal("expected stale-tick error")
	}
}

func TestUnitBoundaryClosesAndCubes(t *testing.T) {
	e := newEngine(t, smallSchema(t), 0.1)
	// Fill unit 0 densely for two cells with clear slopes.
	for tk := int64(0); tk < 5; tk++ {
		if _, err := e.Ingest([]int32{0, 0}, tk, float64(tk)); err != nil { // slope 1
			t.Fatal(err)
		}
		if _, err := e.Ingest([]int32{3, 3}, tk, 10-2*float64(tk)); err != nil { // slope −2
			t.Fatal(err)
		}
	}
	// First record of unit 1 closes unit 0.
	results, err := e.Ingest([]int32{0, 0}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("closed units = %d, want 1", len(results))
	}
	ur := results[0]
	if ur.Unit != 0 || ur.Interval != (timeseries.Interval{Tb: 0, Te: 4}) {
		t.Fatalf("unit result meta = %+v", ur)
	}
	if ur.Result == nil {
		t.Fatal("expected a cube result")
	}
	// o-layer = 2×2 grid; two populated o-cells.
	if len(ur.Result.OLayer) != 2 {
		t.Fatalf("o-layer cells = %d, want 2", len(ur.Result.OLayer))
	}
	// Slopes at the o-layer match the raw fits exactly (zero noise).
	for key, isb := range ur.Result.OLayer {
		switch key.Member(0) {
		case 0:
			if !almostEq(isb.Slope, 1, 1e-9) {
				t.Fatalf("cell %v slope %g, want 1", key, isb.Slope)
			}
		case 1:
			if !almostEq(isb.Slope, -2, 1e-9) {
				t.Fatalf("cell %v slope %g, want -2", key, isb.Slope)
			}
		}
	}
	if len(ur.Alerts) == 0 {
		t.Fatal("slopes 1 and -2 should alert at threshold 0.1")
	}
	if e.UnitsDone() != 1 || e.Unit() != 1 {
		t.Fatalf("unit counters: done=%d open=%d", e.UnitsDone(), e.Unit())
	}
}

func TestMissingTicksCountAsZero(t *testing.T) {
	e := newEngine(t, smallSchema(t), 99)
	// Only ticks 0 and 4 observed; 1-3 are implicit zeros.
	if _, err := e.Ingest([]int32{0, 0}, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0, 0}, 4, 5); err != nil {
		t.Fatal(err)
	}
	ur, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := regression.MustFit(timeseries.MustNew(0, []float64{5, 0, 0, 0, 5}))
	var got regression.ISB
	for _, isb := range ur.Result.OLayer {
		got = isb
	}
	if !almostEq(got.Slope, want.Slope, 1e-9) || !almostEq(got.Base, want.Base, 1e-9) {
		t.Fatalf("o-cell = %v, want %v", got, want)
	}
}

func TestFlushPadsToBoundary(t *testing.T) {
	e := newEngine(t, smallSchema(t), 99)
	if _, err := e.Ingest([]int32{0, 0}, 0, 10); err != nil {
		t.Fatal(err)
	}
	ur, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := regression.MustFit(timeseries.MustNew(0, []float64{10, 0, 0, 0, 0}))
	var got regression.ISB
	for _, isb := range ur.Result.OLayer {
		got = isb
	}
	if !almostEq(got.Slope, want.Slope, 1e-9) {
		t.Fatalf("flush slope = %g, want %g", got.Slope, want.Slope)
	}
	if e.ActiveCells() != 0 {
		t.Fatal("cells must reset after flush")
	}
}

func TestEmptyUnitsOnGap(t *testing.T) {
	e := newEngine(t, smallSchema(t), 1)
	if _, err := e.Ingest([]int32{0, 0}, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Jump to unit 3: closes units 0, 1, 2; units 1 and 2 are empty.
	results, err := e.Ingest([]int32{0, 0}, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("closed units = %d, want 3", len(results))
	}
	if results[0].Result == nil {
		t.Fatal("unit 0 had data")
	}
	if results[1].Result != nil || results[2].Result != nil {
		t.Fatal("units 1-2 were empty")
	}
}

// The key §4.5 guarantee: the online engine's per-unit output equals batch
// computation over the same data.
func TestOnlineEqualsBatch(t *testing.T) {
	s := smallSchema(t)
	e := newEngine(t, s, 0.5)
	r := rand.New(rand.NewSource(33))
	const units, ticksPer = 3, 5
	type cellSeries map[[2]int32][]float64
	perUnit := make([]cellSeries, units)
	for u := range perUnit {
		perUnit[u] = cellSeries{}
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				vals := make([]float64, ticksPer)
				for i := range vals {
					vals[i] = r.NormFloat64() * 3
				}
				perUnit[u][[2]int32{a, b}] = vals
			}
		}
	}
	var unitResults []*UnitResult
	for u := 0; u < units; u++ {
		for i := 0; i < ticksPer; i++ {
			tick := int64(u*ticksPer + i)
			for cell, vals := range perUnit[u] {
				closed, err := e.Ingest([]int32{cell[0], cell[1]}, tick, vals[i])
				if err != nil {
					t.Fatal(err)
				}
				unitResults = append(unitResults, closed...)
			}
		}
	}
	final, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	unitResults = append(unitResults, final)
	if len(unitResults) != units {
		t.Fatalf("unit results = %d, want %d", len(unitResults), units)
	}
	// Batch comparison per unit.
	for u, ur := range unitResults {
		var inputs []core.Input
		for cell, vals := range perUnit[u] {
			isb := regression.MustFit(timeseries.MustNew(int64(u*ticksPer), vals))
			inputs = append(inputs, core.Input{Members: []int32{cell[0], cell[1]}, Measure: isb})
		}
		want, err := core.MOCubing(s, inputs, exception.Global(0.5))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.OLayer) != len(ur.Result.OLayer) {
			t.Fatalf("unit %d: o-layer %d vs %d", u, len(want.OLayer), len(ur.Result.OLayer))
		}
		for key, isb := range want.OLayer {
			got, ok := ur.Result.OLayer[key]
			if !ok || !almostEq(got.Slope, isb.Slope, 1e-9) || !almostEq(got.Base, isb.Base, 1e-9) {
				t.Fatalf("unit %d: o-cell %v online %v vs batch %v", u, key, got, isb)
			}
		}
		if len(want.Exceptions) != len(ur.Result.Exceptions) {
			t.Fatalf("unit %d: exceptions %d vs %d", u, len(want.Exceptions), len(ur.Result.Exceptions))
		}
	}
}

func TestAlertsCarryDrill(t *testing.T) {
	s := smallSchema(t)
	e := newEngine(t, s, 0.5)
	// One m-cell with a steep series: its o-ancestor alerts and the drill
	// names the m-cell among supporters.
	for tk := int64(0); tk < 5; tk++ {
		if _, err := e.Ingest([]int32{0, 0}, tk, 3*float64(tk)); err != nil {
			t.Fatal(err)
		}
	}
	ur, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(ur.Alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(ur.Alerts))
	}
	al := ur.Alerts[0]
	if al.Kind != SlopeException {
		t.Fatalf("kind = %v", al.Kind)
	}
	foundM := false
	for _, c := range al.Drill {
		if c.Key.Cuboid.Equal(s.MLayer()) && c.Key.Member(0) == 0 && c.Key.Member(1) == 0 {
			foundM = true
		}
	}
	if !foundM {
		t.Fatalf("drill missing the m-cell supporter: %+v", al.Drill)
	}
}

func TestDeltaAlerts(t *testing.T) {
	s := smallSchema(t)
	e, err := NewEngine(Config{
		Schema:       s,
		TicksPerUnit: 5,
		Threshold:    exception.Global(1e9), // suppress slope alerts
		Delta:        &exception.Delta{MinSlopeChange: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	feedUnit := func(slope float64) *UnitResult {
		t.Helper()
		start := e.unitStart(e.Unit())
		for i := int64(0); i < 5; i++ {
			if _, err := e.Ingest([]int32{0, 0}, start+i, slope*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ur, err := e.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return ur
	}
	ur0 := feedUnit(0.1)
	if len(ur0.Alerts) != 0 {
		t.Fatal("first unit has no previous window")
	}
	ur1 := feedUnit(2.5) // slope change 2.4 ≥ 1.5
	found := false
	for _, al := range ur1.Alerts {
		if al.Kind == SlopeChange {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a slope-change alert, got %+v", ur1.Alerts)
	}
	ur2 := feedUnit(2.6) // change 0.1 < 1.5
	for _, al := range ur2.Alerts {
		if al.Kind == SlopeChange {
			t.Fatal("small change must not alert")
		}
	}
}

func TestTrendQuery(t *testing.T) {
	s := smallSchema(t)
	e := newEngine(t, s, 1e9)
	raw := timeseries.NewSynth(5).Linear(0, 15, 4, 0.3, 0.2) // 3 units
	for i, z := range raw.Values {
		if _, err := e.Ingest([]int32{0, 0}, int64(i), z); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	oCell := cube.NewCellKey(s.OLayer(), 0, 0)
	if e.HistoryLen(oCell) != 3 {
		t.Fatalf("history = %d, want 3", e.HistoryLen(oCell))
	}
	got, err := e.TrendQuery(oCell, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := regression.MustFit(raw)
	if !almostEq(got.Slope, want.Slope, 1e-9) || !almostEq(got.Base, want.Base, 1e-9) {
		t.Fatalf("trend = %v, want %v", got, want)
	}
	if _, err := e.TrendQuery(oCell, 4); err == nil {
		t.Fatal("expected too-few-units error")
	}
	if _, err := e.TrendQuery(oCell, 0); err == nil {
		t.Fatal("expected k≥1 error")
	}
}

// TestTrendQueryGapDetection pins the absent-unit decision on a default
// engine: a cell that sits a unit out registers a zero regression over it,
// so a window across the quiet unit answers (it used to fail with "history
// gap") and spans it.
func TestTrendQueryGapDetection(t *testing.T) {
	s := smallSchema(t)
	e := newEngine(t, s, 1e9)
	// Unit 0 with data, unit 1 empty (quiet), unit 2 with data.
	for i := int64(0); i < 5; i++ {
		_, _ = e.Ingest([]int32{0, 0}, i, 1)
	}
	if _, err := e.Ingest([]int32{0, 0}, 10, 1); err != nil { // skips unit 1
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	oCell := cube.NewCellKey(s.OLayer(), 0, 0)
	if got := e.HistoryLen(oCell); got != 3 {
		t.Fatalf("history = %d units, want 3 (the quiet unit is one of them)", got)
	}
	across, err := e.TrendQuery(oCell, 2)
	if err != nil {
		t.Fatalf("k=2 across the quiet unit: %v", err)
	}
	if across.Tb != 5 || across.Te != 14 {
		t.Fatalf("k=2 interval = [%d,%d], want [5,14]: quiet unit 1 plus unit 2", across.Tb, across.Te)
	}
	// The quiet unit contributes zeros: the same window fitted over the
	// raw series with zeros for unit 1 and for unit 2's absent ticks.
	padded, err := timeseries.New(5, []float64{0, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := regression.MustFit(padded); !almostEq(across.Slope, want.Slope, 1e-12) || !almostEq(across.Base, want.Base, 1e-12) {
		t.Fatalf("k=2 trend = %v, want %v", across, want)
	}
	if all, err := e.TrendQuery(oCell, 3); err != nil || all.Tb != 0 || all.Te != 14 {
		t.Fatalf("k=3 = %v, %v; want interval [0,14]", all, err)
	}
	if _, err := e.TrendQuery(oCell, 1); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryBounded(t *testing.T) {
	s := smallSchema(t)
	e, err := NewEngine(Config{
		Schema: s, TicksPerUnit: 2, Threshold: exception.Global(1e9),
		TiltLevels: []tilt.Level{{Name: "unit", Multiple: 1, Slots: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < 6; u++ {
		for i := int64(0); i < 2; i++ {
			if _, err := e.Ingest([]int32{0, 0}, u*2+i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _ = e.Flush()
	oCell := cube.NewCellKey(s.OLayer(), 0, 0)
	if e.HistoryLen(oCell) != 3 {
		t.Fatalf("history = %d, want 3 (bounded)", e.HistoryLen(oCell))
	}
}

func TestNonZeroStartTick(t *testing.T) {
	s := smallSchema(t)
	e, err := NewEngine(Config{
		Schema: s, TicksPerUnit: 5, StartTick: 100, Threshold: exception.Global(1e9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{0, 0}, 99, 1); err == nil {
		t.Fatal("expected stale-tick error before start")
	}
	if _, err := e.Ingest([]int32{0, 0}, 100, 1); err != nil {
		t.Fatal(err)
	}
	ur, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ur.Interval.Tb != 100 || ur.Interval.Te != 104 {
		t.Fatalf("unit interval = %v", ur.Interval)
	}
}
