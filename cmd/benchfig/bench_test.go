package main

import (
	"testing"

	"repro/internal/gen"
)

// The sweep tests use scaled-down datasets; the full-scale paper sweeps
// run via cmd/benchfig. These tests assert the *shapes* the paper reports.

func TestFig8Shapes(t *testing.T) {
	spec := gen.Spec{Dims: 3, Levels: 2, Fanout: 6, Tuples: 4000}
	rows, err := Fig8(spec, 1, []float64{0.1, 1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]

	// m/o-cubing computes all cells regardless of rate: its computed-cell
	// count must be flat across the sweep.
	if first.MO.Cells != last.MO.Cells {
		t.Fatalf("m/o cells must be rate-independent: %d vs %d", first.MO.Cells, last.MO.Cells)
	}
	// popular-path computes more cells as the rate grows.
	if last.PP.Cells <= first.PP.Cells {
		t.Fatalf("popular-path cells should grow with rate: %d vs %d", first.PP.Cells, last.PP.Cells)
	}
	// m/o memory grows with the rate (exceptions retained).
	if last.MO.PeakBytes <= first.MO.PeakBytes {
		t.Fatalf("m/o memory should grow with rate: %d vs %d", first.MO.PeakBytes, last.MO.PeakBytes)
	}
	// At the lowest rate popular-path retains more (path cells dominate).
	if first.PP.Retained <= first.MO.Retained {
		t.Fatalf("at low rate popular-path should retain more: %d vs %d", first.PP.Retained, first.MO.Retained)
	}
	// Exception counts shrink as the threshold rises... i.e. grow along
	// the sweep, and both algorithms find comparable magnitudes.
	if last.MO.Exc <= first.MO.Exc {
		t.Fatal("m/o exceptions should grow with the rate")
	}
	if last.PP.Exc > last.MO.Exc {
		t.Fatal("popular-path exceptions are a subset of m/o's")
	}
	// Thresholds decrease along the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].Threshold > rows[i-1].Threshold {
			t.Fatalf("thresholds must fall as the rate rises: %v", rows)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	spec := gen.Spec{Dims: 3, Levels: 2, Fanout: 6, Tuples: 8000}
	rows, err := Fig9(spec, 2, []int{1000, 2000, 4000, 8000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Computed cells grow with size for both algorithms.
	for i := 1; i < len(rows); i++ {
		if rows[i].MO.Cells <= rows[i-1].MO.Cells {
			t.Fatalf("m/o cells should grow with size: %+v", rows)
		}
	}
	// Popular-path memory exceeds m/o at 1% exceptions for every size
	// (Figure 9(b): "popular-path takes more memory space").
	for _, r := range rows {
		if r.PP.PeakBytes <= r.MO.PeakBytes {
			t.Fatalf("size %d: popular-path bytes %d should exceed m/o %d", r.Tuples, r.PP.PeakBytes, r.MO.PeakBytes)
		}
	}
	// Popular-path computes fewer cells than m/o at 1% (the scalability
	// mechanism of Figure 9(a)).
	for _, r := range rows {
		if r.PP.Cells >= r.MO.Cells {
			t.Fatalf("size %d: popular-path cells %d should be below m/o %d", r.Tuples, r.PP.Cells, r.MO.Cells)
		}
	}
}

func TestFig9SubsetErrors(t *testing.T) {
	spec := gen.Spec{Dims: 2, Levels: 2, Fanout: 4, Tuples: 100}
	if _, err := Fig9(spec, 1, []int{1000}, 1); err == nil {
		t.Fatal("expected subset-too-large error")
	}
}

func TestFig10Shapes(t *testing.T) {
	rows, err := Fig10(2, 4, 2000, []int{2, 3, 4}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cuboid counts are (L)² for o-level 1.
	for i, want := range []int{4, 9, 16} {
		if rows[i].Cuboids != want {
			t.Fatalf("levels %d: cuboids = %d, want %d", rows[i].Levels, rows[i].Cuboids, want)
		}
	}
	// Work grows with level count for both algorithms (the "curse of
	// dimensionality" panel).
	for i := 1; i < len(rows); i++ {
		if rows[i].MO.Cells <= rows[i-1].MO.Cells {
			t.Fatalf("m/o cells should grow with levels: %+v", rows)
		}
		if rows[i].PP.Retained <= rows[i-1].PP.Retained {
			t.Fatalf("popular-path retention should grow with levels: %+v", rows)
		}
	}
}

func TestTiltTable(t *testing.T) {
	rows := TiltTable()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	cal := rows[0]
	if cal.Slots != 71 {
		t.Fatalf("calendar slots = %d, want 71", cal.Slots)
	}
	if cal.RawUnits != 35136 {
		t.Fatalf("raw units = %d, want 35136", cal.RawUnits)
	}
	if cal.Ratio < 490 || cal.Ratio > 500 {
		t.Fatalf("ratio = %g, want ≈495 (paper Example 3)", cal.Ratio)
	}
	if rows[1].Slots != 32 {
		t.Fatalf("log frame slots = %d, want 32", rows[1].Slots)
	}
}

func TestFigErrorsPropagate(t *testing.T) {
	bad := gen.Spec{Dims: 0, Levels: 1, Fanout: 1, Tuples: 1}
	if _, err := Fig8(bad, 1, []float64{1}); err == nil {
		t.Fatal("expected spec error")
	}
	if _, err := Fig9(bad, 1, []int{1}, 1); err == nil {
		t.Fatal("expected spec error")
	}
	if _, err := Fig10(0, 1, 1, []int{1}, 1, 1); err == nil {
		t.Fatal("expected spec error")
	}
}
