package gen

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exception"
)

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("D3L3C10T100K")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dims != 3 || sp.Levels != 3 || sp.Fanout != 10 || sp.Tuples != 100000 {
		t.Fatalf("spec = %+v", sp)
	}
	if sp.String() != "D3L3C10T100K" {
		t.Fatalf("String = %q", sp.String())
	}
	sp2, err := ParseSpec("d2l4c5t1m")
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Tuples != 1000000 || sp2.String() != "D2L4C5T1M" {
		t.Fatalf("spec2 = %+v (%s)", sp2, sp2.String())
	}
	sp3, err := ParseSpec("D1L1C1T7")
	if err != nil {
		t.Fatal(err)
	}
	if sp3.Tuples != 7 || sp3.String() != "D1L1C1T7" {
		t.Fatalf("spec3 = %+v", sp3)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"", "D3", "D3L3", "D3L3C10", "L3D3C10T1K", "D3L3C10T", "DXL3C10T1K",
		"D3L3C10T1K!", "D3L3C10T1G", "D0L3C10T1K", "D3L0C10T1K", "D3L3C0T1K",
		"D3L3C10T0", "D99L3C10T1K",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(Config{Spec: Spec{Dims: 3, Levels: 2, Fanout: 4, Tuples: 500}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Inputs) != 500 {
		t.Fatalf("inputs = %d", len(ds.Inputs))
	}
	if ds.Schema.NumDims() != 3 {
		t.Fatalf("dims = %d", ds.Schema.NumDims())
	}
	if ds.Schema.CuboidCount() != 8 { // (2-1+1)^3
		t.Fatalf("cuboids = %d", ds.Schema.CuboidCount())
	}
	card := int32(16) // fanout^levels
	for _, in := range ds.Inputs {
		if len(in.Members) != 3 {
			t.Fatal("member count")
		}
		for _, m := range in.Members {
			if m < 0 || m >= card {
				t.Fatalf("member %d out of range", m)
			}
		}
		if !in.Measure.IsFinite() {
			t.Fatal("non-finite measure")
		}
		if in.Measure.Tb != 0 || in.Measure.Te != 9 {
			t.Fatalf("default interval = [%d,%d]", in.Measure.Tb, in.Measure.Te)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := Config{Spec: Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 100}, Seed: 42}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.Inputs {
		if a.Inputs[i].Measure != b.Inputs[i].Measure {
			t.Fatal("same seed must give identical measures")
		}
		for d := range a.Inputs[i].Members {
			if a.Inputs[i].Members[d] != b.Inputs[i].Members[d] {
				t.Fatal("same seed must give identical members")
			}
		}
	}
	c, _ := Generate(Config{Spec: cfg.Spec, Seed: 43})
	same := true
	for i := range a.Inputs {
		if a.Inputs[i].Measure != c.Inputs[i].Measure {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateValidatesSpec(t *testing.T) {
	if _, err := Generate(Config{Spec: Spec{Dims: 0, Levels: 1, Fanout: 1, Tuples: 1}}); err == nil {
		t.Fatal("expected invalid spec error")
	}
}

func TestGenerateSkewConcentratesMembers(t *testing.T) {
	spec := Spec{Dims: 1, Levels: 2, Fanout: 10, Tuples: 3000}
	uniform, err := Generate(Config{Spec: spec, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Generate(Config{Spec: spec, Seed: 4, Skew: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(ds *Dataset) int {
		seen := map[int32]bool{}
		for _, in := range ds.Inputs {
			seen[in.Members[0]] = true
		}
		return len(seen)
	}
	du, dk := distinct(uniform), distinct(skewed)
	if dk >= du {
		t.Fatalf("skewed distinct members %d should be below uniform %d", dk, du)
	}
	// Skewed members still land in range.
	card := int32(100)
	for _, in := range skewed.Inputs {
		if in.Members[0] < 0 || in.Members[0] >= card {
			t.Fatalf("member %d out of range", in.Members[0])
		}
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(Config{Spec: Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 100}, Seed: 3})
	sub, err := ds.Subset(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Inputs) != 40 || sub.Spec.Tuples != 40 {
		t.Fatalf("subset = %d tuples", len(sub.Inputs))
	}
	if sub.Schema != ds.Schema {
		t.Fatal("subset must share the schema")
	}
	if _, err := ds.Subset(0); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := ds.Subset(101); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCalibrateThresholdHitsRate(t *testing.T) {
	ds, _ := Generate(Config{Spec: Spec{Dims: 2, Levels: 2, Fanout: 4, Tuples: 800}, Seed: 11})
	for _, rate := range []float64{0.001, 0.01, 0.1, 0.5} {
		thr := ds.CalibrateThreshold(rate)
		got := ds.ExceptionRateAt(thr)
		// Must be within a factor of 2 or an absolute 0.5% of target
		// (ties and discreteness allow slack at tiny rates).
		if math.Abs(got-rate) > 0.005 && (got < rate/2 || got > rate*2) {
			t.Fatalf("rate %g: calibrated threshold %g gives rate %g", rate, thr, got)
		}
	}
}

func TestCalibrateThresholdEdges(t *testing.T) {
	ds, _ := Generate(Config{Spec: Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 100}, Seed: 13})
	if thr := ds.CalibrateThreshold(0); ds.ExceptionRateAt(thr) != 0 {
		t.Fatal("rate 0 must yield no exceptions")
	}
	if thr := ds.CalibrateThreshold(1); thr != 0 {
		t.Fatalf("rate 1 threshold = %g, want 0", thr)
	}
	if got := ds.ExceptionRateAt(0); got != 1 {
		t.Fatalf("rate at threshold 0 = %g, want 1", got)
	}
}

// The calibrated exception rate must drive the engine's retained exception
// count to approximately rate × total cells.
func TestCalibrationDrivesEngine(t *testing.T) {
	ds, _ := Generate(Config{Spec: Spec{Dims: 2, Levels: 2, Fanout: 4, Tuples: 500}, Seed: 17})
	rate := 0.05
	thr := ds.CalibrateThreshold(rate)
	res, err := core.MOCubing(ds.Schema, ds.Inputs, exception.Global(thr))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.NumExceptions()) / float64(res.Stats.CellsComputed)
	if got < rate/2 || got > rate*2 {
		t.Fatalf("engine exception rate %g, want ≈%g", got, rate)
	}
}
