package insight

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
	"repro/internal/timeseries"
)

// fitUnits fits one ISB per unit over a raw per-tick series, the way the
// engine's history records them.
func fitUnits(t *testing.T, values []float64, ticksPerUnit int) []stream.HistoryPoint {
	t.Helper()
	var pts []stream.HistoryPoint
	for u := 0; u*ticksPerUnit < len(values); u++ {
		lo := u * ticksPerUnit
		s := timeseries.MustNew(int64(lo), values[lo:lo+ticksPerUnit])
		isb, err := regression.Fit(s)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, stream.HistoryPoint{Unit: int64(u), ISB: isb})
	}
	return pts
}

// TestForecastMatchesBruteForce is the acceptance property: the window
// model, the prediction, and the time-to-threshold must match a
// brute-force replay of the raw series behind the cell's slots — a direct
// least-squares fit over the concatenated ticks (Theorem 3.3 makes the
// slot aggregation lossless) and a tick-by-tick scan for the crossing.
func TestForecastMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const units, ticksPerUnit = 12, 5
	values := make([]float64, units*ticksPerUnit)
	for i := range values {
		values[i] = 3.5*float64(i) + 40*rng.Float64() // rising trend + noise
	}
	pts := fitUnits(t, values, ticksPerUnit)

	threshold := 400.0
	f, err := ForecastHistory(pts, 10, &threshold)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force 1: fit the raw series directly.
	direct, err := regression.Fit(timeseries.MustNew(0, values))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Model.Slope-direct.Slope) > 1e-9*math.Abs(direct.Slope) {
		t.Fatalf("aggregate slope %.12g, brute-force fit %.12g", f.Model.Slope, direct.Slope)
	}
	if math.Abs(f.Model.Base-direct.Base) > 1e-9*math.Max(1, math.Abs(direct.Base)) {
		t.Fatalf("aggregate base %.12g, brute-force fit %.12g", f.Model.Base, direct.Base)
	}
	if want := direct.At(direct.Te + 10); math.Abs(f.Predicted-want) > 1e-6 {
		t.Fatalf("predicted %.12g, brute force %.12g", f.Predicted, want)
	}

	// Brute force 2: scan the fitted line tick by tick for the crossing.
	if f.TicksToThreshold == nil {
		t.Fatal("rising line below threshold: want a crossing, got never")
	}
	var crossed int64 = -1
	for dt := int64(1); dt < 10_000; dt++ {
		if direct.At(direct.Te+dt) >= threshold {
			crossed = dt
			break
		}
	}
	if crossed < 0 {
		t.Fatal("brute-force scan never crossed")
	}
	if got := int64(math.Ceil(*f.TicksToThreshold)); got != crossed {
		t.Fatalf("ceil(ticksToThreshold) = %d, brute-force scan crossed at +%d ticks", got, crossed)
	}

	// Exact solve agrees too.
	want := (threshold - direct.At(direct.Te)) / direct.Slope
	if math.Abs(*f.TicksToThreshold-want) > 1e-6 {
		t.Fatalf("ticksToThreshold %.12g, closed form %.12g", *f.TicksToThreshold, want)
	}
}

func TestTicksToThreshold(t *testing.T) {
	up := regression.ISB{Tb: 0, Te: 9, Base: 0, Slope: 2} // value 18 at te
	down := regression.ISB{Tb: 0, Te: 9, Base: 100, Slope: -3}
	flat := regression.ISB{Tb: 0, Te: 9, Base: 50, Slope: 0}
	cases := []struct {
		name      string
		model     regression.ISB
		threshold float64
		want      *float64
	}{
		{"rising toward", up, 30, ptr(6.0)},
		{"rising away (already past)", up, 10, nil},
		{"falling toward", down, 40, ptr(11.0)}, // value 73 at te, (40-73)/-3
		{"falling away", down, 200, nil},
		{"flat", flat, 60, nil},
		{"exactly at threshold", flat, 50, ptr(0.0)},
	}
	for _, tc := range cases {
		got := TicksToThreshold(tc.model, tc.threshold)
		switch {
		case (got == nil) != (tc.want == nil):
			t.Errorf("%s: got %v, want %v", tc.name, fmtPtr(got), fmtPtr(tc.want))
		case got != nil && math.Abs(*got-*tc.want) > 1e-12:
			t.Errorf("%s: got %g, want %g", tc.name, *got, *tc.want)
		}
	}
}

func ptr(v float64) *float64 { return &v }

func fmtPtr(p *float64) any {
	if p == nil {
		return "never"
	}
	return *p
}

func TestForecastR2(t *testing.T) {
	// Perfectly linear ticks: every unit mean sits on the aggregate line.
	linear := make([]float64, 40)
	for i := range linear {
		linear[i] = 2*float64(i) + 7
	}
	f, err := ForecastHistory(fitUnits(t, linear, 5), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.R2 < 1-1e-12 || f.R2 > 1 {
		t.Fatalf("linear series R2 = %g, want 1", f.R2)
	}

	// A sawtooth's unit means scatter around the flat aggregate line.
	saw := make([]float64, 40)
	for i := range saw {
		saw[i] = float64((i % 10) * 10)
	}
	f, err = ForecastHistory(fitUnits(t, saw, 5), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(f.R2 >= 0 && f.R2 < 0.9) {
		t.Fatalf("sawtooth R2 = %g, want well below 1", f.R2)
	}

	// Single-unit window: the model is the slot, R2 = 1 by convention.
	f, err = ForecastHistory(fitUnits(t, linear[:5], 5), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.R2 != 1 {
		t.Fatalf("single-unit R2 = %g, want 1", f.R2)
	}
}

func TestForecastRejects(t *testing.T) {
	pts := fitUnits(t, []float64{1, 2, 3, 4, 5, 6}, 3)
	if _, err := ForecastHistory(pts, 0, nil); !errors.Is(err, ErrArgs) {
		t.Fatalf("horizon 0: err = %v, want ErrArgs", err)
	}
	if _, err := ForecastHistory(nil, 5, nil); !errors.Is(err, ErrHistory) {
		t.Fatalf("empty history: err = %v, want ErrHistory", err)
	}
	gapped := []stream.HistoryPoint{pts[0], {Unit: pts[1].Unit + 1, ISB: pts[1].ISB}}
	if _, err := ForecastHistory(gapped, 5, nil); !errors.Is(err, ErrHistory) {
		t.Fatalf("gapped history: err = %v, want ErrHistory", err)
	}
}

func TestDivergence(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{1, 1, 0},
		{1, -1, 1},
		{1, 0, 1},
		{0, -2, 1},
		{2, 1, 1.0 / 3},
		{-2, -1, 1.0 / 3},
	}
	for _, tc := range cases {
		if got := Divergence(tc.a, tc.b); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("Divergence(%g,%g) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

// testSchema is the D2 fanout-2 schema the serve tests use: 4×4 m-cells
// under 2×2 o-cells.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	ha, err := cube.NewFanoutHierarchy("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := cube.NewFanoutHierarchy("B", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// tiltedSnapshot ingests a stream whose trend breaks halfway (ramp, then
// plateau) into a sharded tilted engine and returns the last snapshot.
func tiltedSnapshot(t *testing.T, shards int) *stream.Snapshot {
	t.Helper()
	eng, err := stream.NewEngine(stream.Config{
		Schema:           testSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		TiltLevels: []tilt.Level{
			{Name: "quarter", Multiple: 1, Slots: 3},
			{Name: "hour", Multiple: 3, Slots: 4},
		},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	const units = 13
	for tick := int64(0); tick < 4*units; tick++ {
		ramp := float64(tick)
		if tick > 2*units {
			ramp = float64(2 * units) // plateau: recent trend flattens
		}
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, ramp*float64(a+2*b+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := eng.Ingest([]int32{0, 0}, 4*units, 0); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	return snap
}

// TestInsightDeterministicAcrossShards is the acceptance property at the
// subsystem level: forecasts and change scans computed from 1-, 4-, and
// 7-shard engines over the same stream are bitwise identical, because the
// merged snapshots are.
func TestInsightDeterministicAcrossShards(t *testing.T) {
	base := tiltedSnapshot(t, 1)
	threshold := 1e6
	baseScan := ScanChanges(base, 0, 0)
	if len(baseScan) == 0 {
		t.Fatal("trend-break stream scored no cells")
	}
	for _, shards := range []int{4, 7} {
		snap := tiltedSnapshot(t, shards)
		if !reflect.DeepEqual(ScanChanges(snap, 0, 0), baseScan) {
			t.Fatalf("ScanChanges differs between 1 and %d shards", shards)
		}
		for _, f := range base.Frames {
			key := f.Key()
			want, errW := ForecastHistory(base.HistoryOf(key), 8, &threshold)
			got, errG := ForecastHistory(snap.HistoryOf(key), 8, &threshold)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("forecast error mismatch at %d shards: %v vs %v", shards, errW, errG)
			}
			if errW == nil && !reflect.DeepEqual(want, got) {
				t.Fatalf("forecast for %v differs between 1 and %d shards:\n%+v\n%+v",
					key, shards, want, got)
			}
		}
	}
}

// TestScanChangesSurfacesTrendBreak: the plateau stream's recent
// (fine-level) trend is flat while the long-horizon (coarse-level) trend
// still remembers the ramp — every o-cell diverges.
func TestScanChangesSurfacesTrendBreak(t *testing.T) {
	snap := tiltedSnapshot(t, 4)
	got := ScanChanges(snap, 0.5, 0)
	if len(got) != 4 {
		t.Fatalf("scored %d cells above 0.5, want all 4 o-cells", len(got))
	}
	for _, c := range got {
		if c.RecentName != "quarter" || c.LongName != "hour" {
			t.Fatalf("winning pair %s/%s, want quarter/hour", c.RecentName, c.LongName)
		}
		if math.Abs(c.RecentSlope) >= math.Abs(c.LongSlope) {
			t.Fatalf("recent slope %g should be flatter than long slope %g", c.RecentSlope, c.LongSlope)
		}
	}
	// Ranking: score descending, canonical key order on ties.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("ranking not score-descending at %d: %g > %g", i, got[i].Score, got[i-1].Score)
		}
		if got[i].Score == got[i-1].Score && cube.CompareKeys(got[i-1].Key, got[i].Key) >= 0 {
			t.Fatalf("tie at %d not in canonical key order", i)
		}
	}
	// Truncation and filtering.
	if top := ScanChanges(snap, 0.5, 2); len(top) != 2 || !reflect.DeepEqual(top, got[:2]) {
		t.Fatalf("k=2 truncation mismatch")
	}
	if none := ScanChanges(snap, 1.1, 0); len(none) != 0 {
		t.Fatalf("minScore above 1 still scored %d cells", len(none))
	}
}

// TestScanChangesFlat: a default engine's frames have one level, and one
// level has no adjacent pair to compare — an empty scan, not an error,
// through the same scoring loop as any other chain.
func TestScanChangesFlat(t *testing.T) {
	eng, err := stream.NewEngine(stream.Config{
		Schema:           testSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 12; tick++ {
		if _, err := eng.Ingest([]int32{0, 0}, tick, float64(tick)); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	if len(snap.Frames) != 1 || snap.Tilted() {
		t.Fatalf("default engine published %d frames, tilted=%v; want one one-level frame", len(snap.Frames), snap.Tilted())
	}
	if got := ScanChanges(snap, 0, 0); got != nil {
		t.Fatalf("default engine scan = %v, want nil", got)
	}
}
