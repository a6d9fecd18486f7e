package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/tilt"
)

// AlgoStats summarizes one algorithm run for a sweep row.
type AlgoStats struct {
	Time      time.Duration
	PeakBytes int64
	Cells     int64 // cells computed
	Retained  int64 // cells retained
	Exc       int   // exception cells found
}

func toAlgoStats(res *core.Result) AlgoStats {
	return AlgoStats{
		Time:      res.Stats.BuildTime + res.Stats.CubeTime,
		PeakBytes: res.Stats.PeakBytes,
		Cells:     res.Stats.CellsComputed,
		Retained:  res.Stats.CellsRetained,
		Exc:       res.NumExceptions(),
	}
}

// runBoth executes both algorithms on a dataset at a threshold.
func runBoth(ds *gen.Dataset, threshold float64) (mo, pp AlgoStats, err error) {
	resMO, err := core.MOCubing(ds.Schema, ds.Inputs, exception.Global(threshold))
	if err != nil {
		return mo, pp, fmt.Errorf("m/o-cubing: %w", err)
	}
	lattice := cube.NewLattice(ds.Schema)
	resPP, err := core.PopularPath(ds.Schema, ds.Inputs, exception.Global(threshold), lattice.DefaultPath())
	if err != nil {
		return mo, pp, fmt.Errorf("popular-path: %w", err)
	}
	return toAlgoStats(resMO), toAlgoStats(resPP), nil
}

// Fig8Row is one point of Figure 8: time and space vs exception rate on a
// fixed dataset.
type Fig8Row struct {
	RatePct   float64 // requested exception percentage (x-axis)
	Threshold float64 // calibrated slope threshold realizing it
	MO, PP    AlgoStats
}

// Fig8 sweeps the exception percentage on one dataset
// (paper: D3L3C10T100K, 0.1%–100%).
func Fig8(spec gen.Spec, seed int64, ratesPct []float64) ([]Fig8Row, error) {
	ds, err := gen.Generate(gen.Config{Spec: spec, Seed: seed})
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(ratesPct))
	for i, p := range ratesPct {
		rates[i] = p / 100
	}
	thresholds := ds.CalibrateThresholds(rates)
	rows := make([]Fig8Row, len(ratesPct))
	for i, pct := range ratesPct {
		mo, pp, err := runBoth(ds, thresholds[i])
		if err != nil {
			return nil, err
		}
		rows[i] = Fig8Row{RatePct: pct, Threshold: thresholds[i], MO: mo, PP: pp}
	}
	return rows, nil
}

// Fig9Row is one point of Figure 9: time and space vs m-layer size at a
// fixed exception rate.
type Fig9Row struct {
	Tuples    int
	Threshold float64
	MO, PP    AlgoStats
}

// Fig9 sweeps the m-layer size using subsets of one dataset (paper:
// D3L3C10, 1% exceptions, sizes as subsets of the same dataset).
func Fig9(spec gen.Spec, seed int64, sizes []int, ratePct float64) ([]Fig9Row, error) {
	ds, err := gen.Generate(gen.Config{Spec: spec, Seed: seed})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(sizes))
	for i, n := range sizes {
		sub, err := ds.Subset(n)
		if err != nil {
			return nil, err
		}
		thr := sub.CalibrateThreshold(ratePct / 100)
		mo, pp, err := runBoth(sub, thr)
		if err != nil {
			return nil, err
		}
		rows[i] = Fig9Row{Tuples: n, Threshold: thr, MO: mo, PP: pp}
	}
	return rows, nil
}

// Fig10Row is one point of Figure 10: time and space vs the number of
// levels between the critical layers.
type Fig10Row struct {
	Levels    int
	Cuboids   int
	Threshold float64
	MO, PP    AlgoStats
}

// Fig10 sweeps the per-dimension level count (paper: D2C10T10K, levels
// 3–7, 1% exceptions).
func Fig10(dims, fanout, tuples int, levels []int, seed int64, ratePct float64) ([]Fig10Row, error) {
	rows := make([]Fig10Row, len(levels))
	for i, l := range levels {
		spec := gen.Spec{Dims: dims, Levels: l, Fanout: fanout, Tuples: tuples}
		ds, err := gen.Generate(gen.Config{Spec: spec, Seed: seed})
		if err != nil {
			return nil, err
		}
		thr := ds.CalibrateThreshold(ratePct / 100)
		mo, pp, err := runBoth(ds, thr)
		if err != nil {
			return nil, err
		}
		rows[i] = Fig10Row{Levels: l, Cuboids: ds.Schema.CuboidCount(), Threshold: thr, MO: mo, PP: pp}
	}
	return rows, nil
}

// TiltRow summarizes the Example 3 compression table.
type TiltRow struct {
	Description string
	Slots       int
	RawUnits    int64
	Ratio       float64
}

// TiltTable reproduces Example 3: the calendar tilt frame registers
// 4+24+31+12 = 71 units against 366·24·4 = 35,136 quarters in a year,
// "a saving of about 495 times".
func TiltTable() []TiltRow {
	cal := tilt.MustNew(tilt.CalendarLevels(), 0)
	rawYear := int64(366 * 24 * 4)
	rows := []TiltRow{{
		Description: "calendar frame (4 qtr + 24 hr + 31 day + 12 mo)",
		Slots:       cal.SlotCapacity(),
		RawUnits:    rawYear,
		Ratio:       cal.CompressionVsRaw(rawYear),
	}}
	log8 := tilt.MustNew(tilt.LogarithmicLevels(8, 4, 4), 0)
	var logCover int64 = 4
	for i := 1; i < 8; i++ {
		logCover *= 2
	}
	logCover *= 4 // slots at the top level
	rows = append(rows, TiltRow{
		Description: "logarithmic frame (8 levels × 4 slots, doubling)",
		Slots:       log8.SlotCapacity(),
		RawUnits:    logCover,
		Ratio:       log8.CompressionVsRaw(logCover),
	})
	return rows
}
