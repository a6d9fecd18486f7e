package regcube_test

import (
	"fmt"

	regcube "repro"
)

// ExampleFit compresses a raw series into the paper's 4-number ISB
// measure.
func ExampleFit() {
	s, _ := regcube.NewSeries(0, []float64{1, 2, 3, 4, 5})
	isb, _ := regcube.Fit(s)
	fmt.Printf("base=%.1f slope=%.1f over [%d,%d]\n", isb.Base, isb.Slope, isb.Tb, isb.Te)
	// Output: base=1.0 slope=1.0 over [0,4]
}

// ExampleAggregateStandard rolls two cells' measures up a standard
// dimension without touching raw data (Theorem 3.2).
func ExampleAggregateStandard() {
	a := regcube.ISB{Tb: 0, Te: 9, Base: 1.5, Slope: 0.25}
	b := regcube.ISB{Tb: 0, Te: 9, Base: 0.5, Slope: -0.05}
	sum, _ := regcube.AggregateStandard(a, b)
	fmt.Printf("base=%.2f slope=%.2f\n", sum.Base, sum.Slope)
	// Output: base=2.00 slope=0.20
}

// ExampleAggregateTime merges two adjacent quarters into one half-hour
// regression (Theorem 3.3) and matches a direct fit of the joined data.
func ExampleAggregateTime() {
	q1, _ := regcube.NewSeries(0, []float64{10, 12, 14})
	q2, _ := regcube.NewSeries(3, []float64{16, 18, 20})
	i1, _ := regcube.Fit(q1)
	i2, _ := regcube.Fit(q2)
	merged, _ := regcube.AggregateTime(i1, i2)
	fmt.Printf("slope=%.1f over [%d,%d]\n", merged.Slope, merged.Tb, merged.Te)
	// Output: slope=2.0 over [0,5]
}

// ExampleFold demonstrates §6.2 time folding: six fine ticks into two
// coarse ones with each SQL aggregate.
func ExampleFold() {
	s, _ := regcube.NewSeries(0, []float64{1, 5, 3, 2, 8, 4})
	for _, f := range []regcube.FoldFunc{regcube.FoldSum, regcube.FoldAvg, regcube.FoldMax, regcube.FoldLast} {
		out, _ := regcube.Fold(s, 3, f)
		fmt.Printf("%s: %v\n", f, out.Values)
	}
	// Output:
	// sum: [9 14]
	// avg: [3 4.666666666666667]
	// max: [5 8]
	// last: [3 4]
}

// ExampleMOCubing runs the paper's Algorithm 1 end to end on a tiny
// workload.
func ExampleMOCubing() {
	h, _ := regcube.NewFanoutHierarchy("loc", 2, 2)
	schema, _ := regcube.NewSchema(regcube.Dimension{Name: "loc", Hierarchy: h, MLevel: 2, OLevel: 1})
	inputs := []regcube.Input{
		{Members: []int32{0}, Measure: regcube.ISB{Tb: 0, Te: 9, Base: 1, Slope: 3}},
		{Members: []int32{1}, Measure: regcube.ISB{Tb: 0, Te: 9, Base: 1, Slope: 0.1}},
		{Members: []int32{2}, Measure: regcube.ISB{Tb: 0, Te: 9, Base: 1, Slope: -0.1}},
	}
	res, _ := regcube.MOCubing(schema, inputs, regcube.GlobalThreshold(1))
	fmt.Printf("o-layer cells: %d, exceptions: %d\n", res.NumOCells(), res.NumExceptions())
	// Output: o-layer cells: 2, exceptions: 2
}

// ExampleFrame shows the tilt time frame promoting quarters into hours.
func ExampleFrame() {
	frame, _ := regcube.NewFrame([]regcube.FrameLevel{
		{Name: "quarter", Multiple: 3, Slots: 4},
		{Name: "hour", Multiple: 4, Slots: 2},
	}, 0)
	for t := int64(0); t < 12; t++ { // exactly one hour of ticks
		_ = frame.Add(t, float64(t))
	}
	fmt.Printf("quarters=%d hours=%d slots=%d/%d\n",
		frame.Completed(0), frame.Completed(1), frame.SlotsInUse(), frame.SlotCapacity())
	// Output: quarters=4 hours=1 slots=5/6
}
