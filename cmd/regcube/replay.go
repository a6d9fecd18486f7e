package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/node"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// runReplay is the `regcube replay` subcommand: re-run a streamd
// write-ahead log through a fresh engine under whatever configuration the
// flags name. The engine is built like the live daemon's
// (node.EngineConfig), takes each logged batch in one IngestBatch call as
// live ingest did and reports through the node's writer, so the result is
// exactly what a live run with this configuration would have produced —
// shard count, tilt chain, and threshold become what-if knobs over
// recorded history.
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
	report := node.Report(out, a.Schema)
	if *quiet {
		report = func([]*stream.UnitResult) {}
	}

	end, err := wal.ReplayBatches(*walDir, *from, func(seq int64, b *wire.Batch) error {
		closed, ingestErr := a.IngestBatch(b)
		report(closed)
		if ingestErr != nil {
			return fmt.Errorf("wal batch at record %d: %w", seq, ingestErr)
		}
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
	fmt.Fprintf(out, "# replayed %d records (log end %d), %d units\n", max(end-*from, 0), end, a.UnitsDone())
	return nil
}
