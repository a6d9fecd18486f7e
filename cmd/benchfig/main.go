// Command benchfig regenerates the paper's performance study (§5,
// Figures 8–10) and the Example 3 tilt-frame compression table as text
// tables. Each figure is a parameter sweep that runs both cubing
// algorithms, m/o-cubing and popular-path, over a synthetic D/L/C/T
// workload.
//
// Usage:
//
//	benchfig -exp all                 # everything at paper scale
//	benchfig -exp fig8 -scale 0.1     # a 10%-size quick run
//	benchfig -exp tilt
//
// Columns report both algorithms' processing time (build + cube),
// peak-memory estimate, computed cells, and retained exception cells.
// The absolute numbers differ from the paper's 750 MHz Windows 2000
// testbed; the reproduced claim is the curve shapes — which algorithm
// wins where, and how costs scale (DESIGN §3).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gen"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig8 | fig9 | fig10 | tilt | all")
	seed := flag.Int64("seed", 2002, "generator seed")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper size)")
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fmt.Fprintln(os.Stderr, "benchfig: -scale must be in (0,1]")
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s completed in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("tilt", func() error { return runTilt() })
	run("fig8", func() error { return runFig8(*seed, *scale) })
	run("fig9", func() error { return runFig9(*seed, *scale) })
	run("fig10", func() error { return runFig10(*seed, *scale) })

	switch *exp {
	case "all", "fig8", "fig9", "fig10", "tilt":
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
func mb(b int64) float64         { return float64(b) / (1 << 20) }

func runTilt() error {
	fmt.Println("== Example 3: tilt time frame compression ==")
	fmt.Printf("%-50s %8s %10s %8s\n", "frame", "slots", "raw-units", "ratio")
	for _, r := range TiltTable() {
		fmt.Printf("%-50s %8d %10d %7.1fx\n", r.Description, r.Slots, r.RawUnits, r.Ratio)
	}
	fmt.Println()
	return nil
}

func runFig8(seed int64, scale float64) error {
	tuples := int(100000 * scale)
	if tuples < 100 {
		tuples = 100
	}
	spec := gen.Spec{Dims: 3, Levels: 3, Fanout: 10, Tuples: tuples}
	fmt.Printf("== Figure 8: time & space vs exception %% (dataset %s) ==\n", spec)
	rates := []float64{0.1, 0.3, 1, 3, 10, 30, 100}
	rows, err := Fig8(spec, seed, rates)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %12s | %12s %12s | %10s %10s | %12s %12s | %9s %9s\n",
		"exc(%)", "threshold", "mo-time(ms)", "pp-time(ms)", "mo-mem(MB)", "pp-mem(MB)",
		"mo-cells", "pp-cells", "mo-exc", "pp-exc")
	for _, r := range rows {
		fmt.Printf("%8.1f %12.4f | %12.1f %12.1f | %10.1f %10.1f | %12d %12d | %9d %9d\n",
			r.RatePct, r.Threshold, ms(r.MO.Time), ms(r.PP.Time),
			mb(r.MO.PeakBytes), mb(r.PP.PeakBytes), r.MO.Cells, r.PP.Cells, r.MO.Exc, r.PP.Exc)
	}
	fmt.Println()
	return nil
}

func runFig9(seed int64, scale float64) error {
	max := int(256000 * scale)
	if max < 800 {
		max = 800
	}
	spec := gen.Spec{Dims: 3, Levels: 3, Fanout: 10, Tuples: max}
	sizes := []int{max / 8, max / 4, max / 2, max}
	fmt.Printf("== Figure 9: time & space vs m-layer size (D3L3C10, 1%% exceptions, subsets of %s) ==\n", spec)
	rows, err := Fig9(spec, seed, sizes, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s | %12s %12s | %10s %10s | %12s %12s\n",
		"tuples", "threshold", "mo-time(ms)", "pp-time(ms)", "mo-mem(MB)", "pp-mem(MB)", "mo-cells", "pp-cells")
	for _, r := range rows {
		fmt.Printf("%10d %12.4f | %12.1f %12.1f | %10.1f %10.1f | %12d %12d\n",
			r.Tuples, r.Threshold, ms(r.MO.Time), ms(r.PP.Time),
			mb(r.MO.PeakBytes), mb(r.PP.PeakBytes), r.MO.Cells, r.PP.Cells)
	}
	fmt.Println()
	return nil
}

func runFig10(seed int64, scale float64) error {
	tuples := int(10000 * scale)
	if tuples < 100 {
		tuples = 100
	}
	fmt.Printf("== Figure 10: time & space vs #levels (D2C10T%d, 1%% exceptions) ==\n", tuples)
	rows, err := Fig10(2, 10, tuples, []int{3, 4, 5, 6, 7}, seed, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%7s %8s %12s | %12s %12s | %10s %10s | %12s %12s\n",
		"levels", "cuboids", "threshold", "mo-time(ms)", "pp-time(ms)", "mo-mem(MB)", "pp-mem(MB)", "mo-cells", "pp-cells")
	for _, r := range rows {
		fmt.Printf("%7d %8d %12.4f | %12.1f %12.1f | %10.1f %10.1f | %12d %12d\n",
			r.Levels, r.Cuboids, r.Threshold, ms(r.MO.Time), ms(r.PP.Time),
			mb(r.MO.PeakBytes), mb(r.PP.PeakBytes), r.MO.Cells, r.PP.Cells)
	}
	fmt.Println()
	return nil
}
