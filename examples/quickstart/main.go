// Quickstart: a 60-second tour of the regcube public API.
//
//	go run ./examples/quickstart
//
// It walks the paper's pipeline end to end: fit a time series into the
// 4-number ISB measure, aggregate measures without raw data (Theorems
// 3.2/3.3), then compute an exception-based regression cube between the
// m-layer and o-layer with both algorithms.
package main

import (
	"fmt"
	"log"

	regcube "repro"
)

func main() {
	// --- 1. Compress a time series into an ISB regression measure. -----
	// The series from the paper's Example 2.
	z, err := regcube.NewSeries(0, []float64{0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56})
	if err != nil {
		log.Fatal(err)
	}
	isb, err := regcube.Fit(z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Example 2 fit: %v  (slope %.5f per tick)\n", isb, isb.Slope)

	// --- 2. Aggregate measures without touching raw data. --------------
	// Standard dimension: two sensors' series summed pointwise.
	a, _ := regcube.NewSeries(0, []float64{1, 2, 3, 4, 5})
	b, _ := regcube.NewSeries(0, []float64{2, 2, 2, 2, 2})
	ia, _ := regcube.Fit(a)
	ib, _ := regcube.Fit(b)
	sum, _ := regcube.AggregateStandard(ia, ib)
	fmt.Printf("standard agg:  %v + %v = %v\n", ia, ib, sum)

	// Time dimension: two adjacent quarters into one half hour.
	q1, _ := regcube.NewSeries(0, []float64{10, 11, 12})
	q2, _ := regcube.NewSeries(3, []float64{13, 15, 17})
	iq1, _ := regcube.Fit(q1)
	iq2, _ := regcube.Fit(q2)
	half, _ := regcube.AggregateTime(iq1, iq2)
	fmt.Printf("time agg:      %v ⧺ %v = %v\n", iq1, iq2, half)

	// --- 3. Build a regression cube and find exceptions. ---------------
	// Synthetic D2L2C4 workload with 2000 m-layer tuples.
	spec, _ := regcube.ParseDatasetSpec("D2L2C4T2K")
	ds, err := regcube.GenerateDataset(regcube.DatasetConfig{Spec: spec, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	thr := ds.CalibrateThreshold(0.01) // 1% of cells exceptional
	res, err := regcube.MOCubing(ds.Schema, ds.Inputs, regcube.GlobalThreshold(thr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nm/o-cubing over %s: %d o-layer cells, %d exception cells (threshold %.2f)\n",
		spec, res.NumOCells(), res.NumExceptions(), thr)

	// The popular-path algorithm retains a subset of the same exceptions.
	lattice := regcube.NewLattice(ds.Schema)
	pp, err := regcube.PopularPath(ds.Schema, ds.Inputs, regcube.GlobalThreshold(thr), lattice.DefaultPath())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("popular-path:            %d o-layer cells, %d exception cells\n",
		pp.NumOCells(), pp.NumExceptions())
	fmt.Printf("\nstats: m/o computed %d cells, popular-path %d (of %d cuboids)\n",
		res.Stats.CellsComputed, pp.Stats.CellsComputed, ds.Schema.CuboidCount())
}
