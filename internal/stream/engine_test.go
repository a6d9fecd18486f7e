package stream

import (
	"errors"
	"math"
	"slices"
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

func smallSchema(t *testing.T) *cube.Schema { return fanoutSchema(t, 2, 2) }

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
	// Per-cell duplicate tick: refused, and the refusal sticks.
	_, dup := e.Ingest([]int32{0, 0}, 0, 1)
	if !errors.Is(dup, ErrRecord) {
		t.Fatalf("duplicate tick: %v, want ErrRecord", dup)
	}
	if _, err := e.Ingest([]int32{1, 1}, 1, 1); err != dup {
		t.Fatalf("the refusal must stick: %v", err)
	}
	// Tick before the open unit: refused, and nothing sticks.
	e = newEngine(t, smallSchema(t), 1)
	if _, err := e.Ingest([]int32{0, 0}, 7, 1); err != nil { // crosses into unit 1
		t.Fatal(err)
	}
	if _, err := e.Ingest([]int32{1, 1}, 2, 1); !errors.Is(err, ErrRecord) {
		t.Fatalf("stale tick: %v, want ErrRecord", err)
	}
	if _, err := e.Ingest([]int32{1, 1}, 8, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAlertSupportersOnResult: a steep m-cell's o-ancestor alerts, and
// the unit result lists the m-cell among that o-cell's supporters.
func TestAlertSupportersOnResult(t *testing.T) {
	s := smallSchema(t)
	e := newEngine(t, s, 0.5)
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
	supporters := slices.Collect(ur.Result.Supporters(al.Cell))
	if !slices.ContainsFunc(supporters, func(c core.Cell) bool { return c.Key == cube.NewCellKey(s.MLayer(), 0, 0) }) {
		t.Fatalf("supporters of the alerting o-cell miss the m-cell: %+v", supporters)
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
