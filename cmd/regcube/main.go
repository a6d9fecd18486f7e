// Command regcube runs the full exception-based regression-cube pipeline
// end to end on a synthetic workload and reports the o-layer observation
// deck plus the exception drill-down — the interactive session Example 1
// motivates.
//
// Usage:
//
//	regcube -spec D3L3C10T10K -rate 1 -alg both
//	regcube -spec D2L4C5T10K -threshold 12.5 -alg popular-path -top 10
//
// Either -rate (calibrated exception percentage) or -threshold (explicit
// slope threshold) selects the exception level.
//
// The replay subcommand re-runs a streamd write-ahead log through a fresh
// stream engine under any configuration — shard count, tilt chain,
// exception threshold — for what-if analysis (see replay.go):
//
//	regcube replay -wal-dir wal/ -spec D2L2C4 -unit 15 -shards 8 -tilt calendar
//
// The merge subcommand flattens per-node cluster checkpoints (or a
// sharded engine's per-shard set) into one single-engine checkpoint
// (see merge.go):
//
//	regcube merge -o merged.ckpt node0.ckpt node1.ckpt node2.ckpt node3.ckpt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/regression"
)

func main() {
	run, name, args := runBatch, "regcube", os.Args[1:]
	if len(args) > 0 && args[0] == "replay" {
		run, name, args = runReplay, "regcube replay", args[1:]
	} else if len(args) > 0 && args[0] == "merge" {
		run, name, args = runMerge, "regcube merge", args[1:]
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// runBatch is the batch session: generate the -spec workload, cube it with
// the chosen algorithms and print each one's cost and top cells.
func runBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regcube", flag.ContinueOnError)
	specStr := fs.String("spec", "D3L3C10T10K", "dataset spec (D/L/C/T convention)")
	seed := fs.Int64("seed", 2002, "generator seed")
	rate := fs.Float64("rate", 1, "target exception percentage (calibrated); ignored when -threshold is set")
	threshold := fs.Float64("threshold", -1, "explicit slope threshold (overrides -rate)")
	alg := fs.String("alg", "both", "algorithm: mo | popular-path | both")
	top := fs.Int("top", 5, "top-N steepest o-layer cells and exceptions to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	switch *alg {
	case "mo", "popular-path":
		names = []string{*alg}
	case "both":
		names = []string{"mo", "popular-path"}
	default:
		return fmt.Errorf("unknown algorithm %q (want mo, popular-path or both)", *alg)
	}

	spec, err := gen.ParseSpec(*specStr)
	if err != nil {
		return err
	}
	ds, err := gen.Generate(gen.Config{Spec: spec, Seed: *seed})
	if err != nil {
		return err
	}
	thr := *threshold
	if thr < 0 {
		thr = ds.CalibrateThreshold(*rate / 100)
		fmt.Fprintf(out, "calibrated threshold %.4f for %.2f%% exceptions on %s\n\n", thr, *rate, spec)
	}

	for _, name := range names {
		var res *core.Result
		start := time.Now()
		if name == "mo" {
			res, err = core.MOCubing(ds.Schema, ds.Inputs, exception.Global(thr))
		} else {
			res, err = core.PopularPath(ds.Schema, ds.Inputs, exception.Global(thr), cube.NewLattice(ds.Schema).DefaultPath())
		}
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		st := res.Stats
		fmt.Fprintf(out, "== %s ==\n", st.Algorithm)
		fmt.Fprintf(out, "  tuples=%d tree-nodes=%d leaves=%d cuboids=%d\n",
			st.Tuples, st.TreeNodes, st.TreeLeaves, st.CuboidsComputed)
		fmt.Fprintf(out, "  cells computed=%d retained=%d exceptions=%d\n",
			st.CellsComputed, st.CellsRetained, len(res.Exceptions))
		fmt.Fprintf(out, "  time=%v (build %v + cube %v), peak-mem≈%.1f MB\n",
			elapsed.Round(time.Millisecond), st.BuildTime.Round(time.Millisecond),
			st.CubeTime.Round(time.Millisecond), float64(st.PeakBytes)/(1<<20))

		printTop(out, "o-layer observation deck (steepest cells)", ds.Schema, cellsOf(res.OLayer), *top)
		printTop(out, "exception cells between the layers", ds.Schema, cellsOf(res.Exceptions), *top)
		fmt.Fprintln(out)
	}
	return nil
}

func cellsOf(m map[cube.CellKey]regression.ISB) []core.Cell {
	out := make([]core.Cell, 0, len(m))
	for k, isb := range m {
		out = append(out, core.Cell{Key: k, ISB: isb})
	}
	return out
}

func printTop(out io.Writer, title string, schema *cube.Schema, cells []core.Cell, n int) {
	fmt.Fprintf(out, "  %s:\n", title)
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].ISB.Slope, cells[j].ISB.Slope
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		return a > b
	})
	if len(cells) == 0 {
		fmt.Fprintln(out, "    (none)")
		return
	}
	for i, c := range cells {
		if i >= n {
			break
		}
		fmt.Fprintf(out, "    %-40s %v slope=%+.3f mean=%.2f\n",
			c.Key.Describe(schema), c.Key.Cuboid.Describe(schema), c.ISB.Slope, c.ISB.Mean())
	}
}
