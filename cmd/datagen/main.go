// Command datagen emits a synthetic D/L/C/T workload (paper §5) as CSV on
// stdout: one row per m-layer tuple with its dimension members and ISB
// regression measure.
//
// With -stream it instead emits raw stream records in streamd's input
// format — tick,dim0,...,dimN,value — one reading per distinct m-cell per
// tick in global tick order, synthesized from each cell's regression line
// plus noise. `datagen -stream | streamd` is then a complete online
// pipeline. -pace slows emission to one tick per interval, turning the
// batch generator into a live stream source. -format binary switches the
// record encoding to the framed columnar wire format (internal/wire),
// which streamd auto-detects on the same stdin; the records are
// identical, only the envelope changes.
//
// Usage:
//
//	datagen -spec D3L3C10T100K -seed 7 > dataset.csv
//	datagen -spec D2L2C4T2K -stream -ticks 60 | streamd -spec D2L2C4 -unit 15
//
// Columns: dim0,...,dimN,tb,te,base,slope (batch) or
// tick,dim0,...,dimN,value (-stream).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/regression"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

func main() {
	specStr := flag.String("spec", "D3L3C10T100K", "dataset spec (D/L/C/T convention)")
	seed := flag.Int64("seed", 2002, "generator seed")
	stream := flag.Bool("stream", false, "emit raw stream records (tick,dims...,value) for streamd")
	ticks := flag.Int("ticks", 10, "regression interval length per tuple")
	pace := flag.Duration("pace", 0, "with -stream: delay between ticks (0 = as fast as possible)")
	format := flag.String("format", "text", "with -stream: record encoding, text or binary")
	flag.Parse()

	if !*stream && (*pace != 0 || *format != "text") {
		fmt.Fprintln(os.Stderr, "datagen: -pace and -format only apply with -stream")
		os.Exit(2)
	}
	if *format != "text" && *format != "binary" {
		fmt.Fprintf(os.Stderr, "datagen: -format %q: want text or binary\n", *format)
		os.Exit(2)
	}

	spec, err := gen.ParseSpec(*specStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(2)
	}
	ds, err := gen.Generate(gen.Config{Spec: spec, Seed: *seed, Ticks: *ticks})
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if *stream {
		if err := writeStream(w, ds, *ticks, *seed, *pace, *format == "binary"); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// Header.
	for d := 0; d < spec.Dims; d++ {
		fmt.Fprintf(w, "dim%d,", d)
	}
	fmt.Fprintln(w, "tb,te,base,slope")
	for _, in := range ds.Inputs {
		for _, m := range in.Members {
			w.WriteString(strconv.FormatInt(int64(m), 10))
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%d,%d,%g,%g\n", in.Measure.Tb, in.Measure.Te, in.Measure.Base, in.Measure.Slope)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d tuples of %s (seed %d)\n", len(ds.Inputs), spec, *seed)
}

// writeStream renders the dataset as raw records for the online engine:
// tuples sharing an m-cell merge (the engine allows one reading per cell
// per tick), each cell synthesizes a noisy series around its regression
// line, and rows stream out in global tick order. With pace > 0 each
// tick's rows are flushed and emission sleeps between ticks, simulating a
// live source. With binary the same records go out as framed columnar
// batches instead of text lines; the float bits are identical either way,
// so a consumer's state is bitwise independent of the encoding.
func writeStream(w *bufio.Writer, ds *gen.Dataset, ticks int, seed int64, pace time.Duration, binary bool) error {
	type cell struct {
		members []int32
		isb     regression.ISB
	}
	var cells []*cell
	index := make(map[string]*cell, len(ds.Inputs))
	var keyBuf []byte
	for _, in := range ds.Inputs {
		keyBuf = keyBuf[:0]
		for _, m := range in.Members {
			keyBuf = strconv.AppendInt(keyBuf, int64(m), 10)
			keyBuf = append(keyBuf, ',')
		}
		c, ok := index[string(keyBuf)]
		if !ok {
			c = &cell{members: in.Members, isb: in.Measure}
			index[string(keyBuf)] = c
			cells = append(cells, c)
			continue
		}
		merged, err := regression.AggregateStandard(c.isb, in.Measure)
		if err != nil {
			return err
		}
		c.isb = merged
	}
	g := timeseries.NewSynth(seed + 2)
	series := make([]*timeseries.Series, len(cells))
	for i, c := range cells {
		series[i] = g.Linear(0, ticks, c.isb.Base, c.isb.Slope, 0.5)
	}
	var bw *wire.Writer
	if binary {
		var err error
		if bw, err = wire.NewWriter(w, ds.Schema.NumDims()); err != nil {
			return err
		}
	}
	var rows int64
	var line []byte
	for t := 0; t < ticks; t++ {
		if pace > 0 && t > 0 {
			if bw != nil {
				// Ship the tick's batch now so a paced consumer sees it.
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
			time.Sleep(pace)
		}
		for i, c := range cells {
			if bw != nil {
				if err := bw.Append(int64(t), c.members, series[i].Values[t]); err != nil {
					return err
				}
			} else {
				line = gen.AppendStreamRecord(line[:0], int64(t), c.members, series[i].Values[t])
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
			rows++
		}
	}
	if bw != nil {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d stream records over %d ticks, %d cells (seed %d)\n",
		rows, ticks, len(cells), seed)
	return nil
}
