// Command streamd runs the online analyzer (§4.5) over a record stream
// from stdin and prints o-layer alerts with their exception drill-down as
// units complete. It checkpoints its state so a restart resumes mid-unit
// without data loss.
//
// The input format is auto-detected: a stream opening with the
// "RGCWIRE1" magic is the binary columnar wire format (length-prefixed
// CRC32C frames carrying record batches, see internal/wire and DESIGN.md
// §11), decoded with zero per-record allocation; anything else is the
// text format below. `datagen -stream -format=binary | streamd` is the
// fast path — the sharded router partitions whole batches with one
// ancestor-table pass per dimension.
//
// With -shards N > 1 the analyzer hash-partitions m-layer cells by their
// o-layer ancestors across N shards that cube each unit in parallel (see
// stream.Engine); the ingest loop's goroutine accumulates every record, and
// the merged output is identical at every shard count, with alerts
// deterministically sorted. The default is GOMAXPROCS; -shards 1 is the
// same analyzer with one partition, run wholly on the ingest loop's
// goroutine.
//
// With -listen ADDR streamd also serves the HTTP/JSON query API
// (internal/serve) from per-unit engine snapshots, so analysts can hit
// /v1/exceptions, /v1/trend, etc. while ingestion continues at full rate.
//
// With -alert-crit T > 0 the stateful alert lifecycle (internal/alert)
// observes every unit snapshot the engine returns, on the ingest loop
// after the report: consecutive unit snapshots are diffed into
// level-transition events (ok → warn → crit and back), deduped per cell,
// flap-suppressed with an -alert-hold unit hold, and inhibited for
// drill-down cells whose o-layer ancestor is already firing. Events
// print as ALERTEVENT lines and, with -alert-webhook, POST to the given
// URL with capped exponential retries; /v1/alerts/events serves the
// recent-event ring.
//
// With -forecast-threshold V (and a -forecast-horizon budget) the
// predictive "forecast" topic joins the lifecycle: each unit, every
// o-cell's trailing history is extrapolated (Theorem 3.3 aggregation of
// its per-unit fits), and a cell forecast to reach V within the budget
// goes critical — within twice the budget, warn — through the same
// dedup/hold machinery, before the measured slope trips anything. The
// same two flags are the GET-shim defaults of /v1/forecast, and
// -change-score is the default divergence cutoff of /v1/changes.
//
// One goroutine reads each frame (a binary frame, or a text batch), logs
// the bytes it received and ingests them. On SIGINT/SIGTERM streamd
// finishes the frame in hand, shuts the HTTP listener down, flushes the
// final partial unit, saves the checkpoint, and closes the alert handlers,
// draining their queues, before exiting 0. Bytes not yet read into a frame
// are abandoned, as with any streaming shutdown; a read from stdin that
// waits for a silent producer is left to die with the process.
//
// Every o-cell's trend history is one tilt time frame (§4.1); -tilt names
// its level chain. Each closed unit promotes through the chain (e.g.
// quarter → hour → day → month), so /v1/trend?level= and /v1/frame reach
// far into the past at coarser granularity while per-cell state stays
// bounded by the chain's slot capacity; the default, unit:1:64, keeps the
// last 64 units and nothing coarser. A unit an o-cell sits out is a zero
// regression at every level.
//
// With -wal-dir streamd appends every record to a segmented, CRC32C-framed
// write-ahead log before ingesting it (see internal/wal). Checkpoints then
// carry the log watermark and are cut only once the log written since the
// last one outweighs it, and a restart — graceful or kill -9 — replays
// the durable records past the watermark to rebuild the open unit exactly,
// re-reporting the units that replay closes; -wal-sync picks the fsync
// policy (batch / interval[=dur] / off). The
// same log feeds `regcube replay` for what-if reprocessing under a
// different shard count, tilt chain, or threshold.
//
// Checkpoint files have one layout: the same stream position writes the
// same bytes at any -shards value (the binary checkpoint document, version
// 5: the open unit's cells plus every o-cell's tilt frame behind a
// checksum), and a file resumes at any -shards
// or -tilt value — cells repartition across the shards, a frame kept under
// the same -tilt chain restores exactly, and one kept under another chain
// reseeds a fresh frame from its finest retained level — so both knobs can
// change freely between restarts. The JSON files older releases wrote
// (versions 1 to 4, per-shard ones included) still load: they are
// converted to the one layout on read (a version 1/2 flat history becomes
// a one-level frame), and the next closed unit replaces the file with a
// version 5 one.
//
// Text record format (no header): tick,dim0,...,dimN,value
//
// Usage:
//
//	datagen-style producer | streamd -spec D2L2C4 -unit 15 -threshold 2
//	streamd -spec D2L2C4 -unit 15 -threshold 2 -checkpoint state.ckpt < records.csv
//	streamd -spec D2L2C4 -shards 8 -listen :8080 -checkpoint state.ckpt < records.csv
//
// The runtime itself — engine construction, WAL replay, ingest sources,
// the query server, the alert lifecycle, and the ordered shutdown — lives
// in internal/node; this binary is flag parsing over node.Run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/node"
)

// options collects the flag values so tests drive run directly.
type options struct {
	spec         string
	unit         int
	threshold    float64
	checkpoint   string
	shards       int
	listen       string
	ingestListen string
	nodeID       string
	tilt         string
	walDir       string
	walSync      string
	walSegBytes  int64
	alertWarn    float64
	alertCrit    float64
	alertHold    int
	alertWebhook string
	fcastThresh  float64
	fcastHorizon int64
	changeScore  float64
}

func main() {
	var opt options
	flag.StringVar(&opt.spec, "spec", "D2L2C4", "schema spec D<dims>L<levels>C<fanout> (no T component); "+
		"the o-layer sits at level 1 per dimension, bounding -shards parallelism by fanout^dims o-cells")
	flag.IntVar(&opt.unit, "unit", 15, "ticks per finest tilt-frame unit")
	flag.Float64Var(&opt.threshold, "threshold", 1, "slope exception threshold")
	flag.StringVar(&opt.checkpoint, "checkpoint", "", "checkpoint file (loaded if present; saved after every unit, "+
		"or with -wal-dir once the log written since the last save outweighs the file, and at shutdown; "+
		"one layout whatever -shards wrote it, resumable at any -shards; older per-shard files upgrade on read)")
	flag.IntVar(&opt.shards, "shards", runtime.GOMAXPROCS(0), "engine shards ingesting and cubing in parallel; 1 = single-threaded, on the ingest loop's goroutine")
	flag.StringVar(&opt.listen, "listen", "", "serve the HTTP/JSON query API on this address (e.g. :8080); empty disables")
	flag.StringVar(&opt.ingestListen, "ingest-listen", "", "accept the record stream on this TCP address instead of stdin "+
		"(same auto-negotiated text/binary formats; connections are consumed one at a time until a signal)")
	flag.StringVar(&opt.nodeID, "node-id", "", "operator-assigned node identity reported on /v1/info (cluster deployments)")
	flag.StringVar(&opt.tilt, "tilt", "", "level chain of each o-cell's tilt time frame (its trend history): 'calendar' (4 quarters/24 hours/31 days/12 months of units), "+
		"'log<N>x<S>' (N doubling levels of S slots), or 'name:multiple:slots,...' finest first; empty is 'unit:1:64', the last 64 units and nothing coarser")
	flag.StringVar(&opt.walDir, "wal-dir", "", "write-ahead record log directory (created if absent); every record is logged before ingest, "+
		"and on restart the log replays past the checkpoint's watermark to rebuild the open unit exactly")
	flag.StringVar(&opt.walSync, "wal-sync", "batch", "WAL fsync policy: 'batch' (every append), 'interval[=dur]' (at most once per period, default 100ms), "+
		"or 'off' (only before checkpoints)")
	flag.Int64Var(&opt.walSegBytes, "wal-segment-bytes", 0, "rotate WAL segments at this size (0 = 64 MiB default)")
	flag.Float64Var(&opt.alertWarn, "alert-warn", 0, "|slope| warn threshold for the alert lifecycle (0 = half of -alert-crit)")
	flag.Float64Var(&opt.alertCrit, "alert-crit", 0, "|slope| crit threshold; > 0 enables the stateful alert lifecycle "+
		"(level-transition events with per-cell dedup, hold-based flap suppression, and ancestor inhibition)")
	flag.IntVar(&opt.alertHold, "alert-hold", 2, "units a cell must stay below its reported level before a de-escalation event fires")
	flag.StringVar(&opt.alertWebhook, "alert-webhook", "", "POST every alert event to this URL as JSON, with capped exponential retries; "+
		"empty disables the webhook handler")
	flag.Float64Var(&opt.fcastThresh, "forecast-threshold", 0, "measure value forecasts extrapolate toward: the default ?threshold= of "+
		"/v1/forecast and, with -forecast-horizon, the trigger of the predictive 'forecast' alert topic (cells forecast to reach it "+
		"within the horizon go critical); 0 disables both")
	flag.Int64Var(&opt.fcastHorizon, "forecast-horizon", 60, "forecast horizon in ticks: the default ?horizon= of /v1/forecast and the "+
		"predictive alert budget")
	flag.Float64Var(&opt.changeScore, "change-score", 0.25, "default minimum slope-divergence score of /v1/changes, in [0,1]")
	flag.Parse()

	// A signal stops the record loop; the ordered shutdown — the frame in
	// hand, HTTP, flush, checkpoint, alert drain — then runs on the
	// ordinary exit path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "streamd: %v\n", err)
		os.Exit(1)
	}
}

// run maps the flag set onto the node runtime config. Tests drive it
// directly with fabricated options and in-memory streams.
func run(ctx context.Context, opt options, in io.Reader, out io.Writer) error {
	return node.Run(ctx, node.Config{
		Engine: node.EngineConfig{
			Spec:         opt.spec,
			TicksPerUnit: opt.unit,
			Threshold:    opt.threshold,
			Tilt:         opt.tilt,
			Shards:       opt.shards,
		},
		Checkpoint:        opt.checkpoint,
		Listen:            opt.listen,
		IngestListen:      opt.ingestListen,
		NodeID:            opt.nodeID,
		WALDir:            opt.walDir,
		WALSync:           opt.walSync,
		WALSegBytes:       opt.walSegBytes,
		AlertWarn:         opt.alertWarn,
		AlertCrit:         opt.alertCrit,
		AlertHold:         opt.alertHold,
		AlertWebhook:      opt.alertWebhook,
		ForecastThreshold: opt.fcastThresh,
		ForecastHorizon:   opt.fcastHorizon,
		ChangeScore:       opt.changeScore,
	}, in, out)
}
