package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/node"
	"repro/internal/stream"
	"repro/internal/wal"
)

// runReplay is the `regcube replay` subcommand: re-run a streamd
// write-ahead log through a fresh engine under whatever configuration the
// flags name. The engine is built through the same construction path as
// the live daemon (node.EngineConfig), and ingest is deterministic, so
// the result is exactly what a live run with this configuration would
// have produced — shard count, tilt chain, and threshold become what-if
// knobs over recorded history.
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regcube replay", flag.ContinueOnError)
	walDir := fs.String("wal-dir", "", "write-ahead log directory to replay (required)")
	specStr := fs.String("spec", "D2L2C4", "schema spec D<dims>L<levels>C<fanout> (no T component); must match the recording schema's shape")
	unit := fs.Int("unit", 15, "ticks per unit")
	threshold := fs.Float64("threshold", 1, "slope exception threshold")
	shards := fs.Int("shards", 1, "engine shards; 1 = single-threaded")
	tiltStr := fs.String("tilt", "", "tilted trend history chain (same syntax as streamd -tilt)")
	from := fs.Int64("from", 0, "replay from this record sequence (skip earlier records)")
	checkpoint := fs.String("checkpoint", "", "write the post-replay checkpoint to this file")
	quiet := fs.Bool("quiet", false, "suppress per-unit reports; print only the final summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walDir == "" {
		return fmt.Errorf("-wal-dir is required")
	}
	a, err := node.EngineConfig{
		Spec:         *specStr,
		TicksPerUnit: *unit,
		Threshold:    *threshold,
		Tilt:         *tiltStr,
		Shards:       *shards,
	}.Build()
	if err != nil {
		return err
	}
	defer a.Close()
	schema := a.Schema

	report := func(urs []*stream.UnitResult) {
		if *quiet {
			return
		}
		for _, ur := range urs {
			if ur.Result == nil {
				fmt.Fprintf(out, "[unit %d] no data\n", ur.Unit)
				continue
			}
			fmt.Fprintf(out, "[unit %d] %s: %d o-cells, %d exceptions, %d alerts\n",
				ur.Unit, ur.Result.Stats.Algorithm, len(ur.Result.OLayer),
				len(ur.Result.Exceptions), len(ur.Alerts))
			for _, al := range ur.Alerts {
				fmt.Fprintf(out, "  ALERT %s %s slope=%+.3f\n", al.Kind, al.Cell.Describe(schema), al.ISB.Slope)
			}
		}
	}

	var records int64
	end, err := wal.Replay(*walDir, *from, func(seq int64, rec wal.Record) error {
		closed, ingestErr := a.Ingest(rec.Members, rec.Tick, rec.Value)
		if len(closed) > 0 {
			report(closed)
		}
		if ingestErr != nil {
			return fmt.Errorf("wal record %d: %w", seq, ingestErr)
		}
		records++
		return nil
	})
	if err != nil {
		return err
	}
	ur, err := a.Flush()
	if err != nil {
		return err
	}
	report([]*stream.UnitResult{ur})
	if *checkpoint != "" {
		// Stamp the log position so the what-if checkpoint is itself
		// resumable: streamd -wal-dir picks up where this replay stopped.
		if err := a.SetWALSeq(end); err != nil {
			return err
		}
		f, err := os.Create(*checkpoint)
		if err != nil {
			return err
		}
		if err := a.WriteCheckpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "# replayed %d records (log end %d), %d units\n", records, end, a.UnitsDone())
	return nil
}
