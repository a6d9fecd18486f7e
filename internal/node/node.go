package node

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/cube"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config is the full node runtime configuration: the engine half
// (Engine), plus everything that feeds, persists, serves, and alerts on
// it. cmd/streamd maps its flags here one-to-one.
type Config struct {
	// Engine configures analyzer construction. Run turns
	// Engine.PublishSnapshots on exactly when Listen serves the snapshots;
	// the report and the alert lifecycle take the ones ingest returns.
	Engine EngineConfig
	// Checkpoint is the checkpoint file path (loaded if present); empty
	// disables persistence. Without WALDir it is saved after every closed
	// unit; with it, once the log written since the last save outweighs
	// that file, and after every unit a router barrier closes
	// (checkpointDue). Either way it is saved after WAL replay and at
	// shutdown.
	Checkpoint string
	// Listen serves the HTTP/JSON query API on this address; empty
	// disables it.
	Listen string
	// IngestListen accepts the record stream on this TCP address instead
	// of the in-stream reader.
	IngestListen string
	// NodeID is the operator-assigned identity reported on /v1/info.
	NodeID string
	// WALDir enables the write-ahead record log in this directory.
	WALDir string
	// WALSync is the fsync policy: "batch", "interval[=dur]", or "off".
	WALSync string
	// WALSegBytes rotates WAL segments at this size (0 = default).
	WALSegBytes int64
	// AlertWarn/AlertCrit are |slope| thresholds for the alert lifecycle;
	// AlertCrit > 0 enables it (see internal/alert for the state machine).
	AlertWarn, AlertCrit float64
	// AlertHold is the de-escalation hold in units (flap suppression).
	AlertHold int
	// AlertWebhook, when set, POSTs every event to this URL with capped
	// exponential retries.
	AlertWebhook string
	// ForecastThreshold is the measure value forecasts extrapolate toward:
	// the default ?threshold= of GET /v1/forecast, and — together with
	// ForecastHorizon — the predictive alert topic's trigger. 0 disables
	// both (a forecast GET then needs an explicit ?threshold=).
	ForecastThreshold float64
	// ForecastHorizon is the default forecast horizon in ticks for
	// GET /v1/forecast, and the predictive alert budget: cells forecast to
	// reach ForecastThreshold within it go critical (within twice: warn).
	// Forecast alerting needs both ForecastThreshold and a horizon > 0.
	ForecastHorizon int64
	// ChangeScore is the default minimum divergence score of
	// GET /v1/changes.
	ChangeScore float64
}

// Report returns the writer of the unit report streamd prints to out and
// `regcube replay` repeats: per closed unit its summary, each alert and the
// alert's supporters, every line its own Write (DESIGN.md §6.6 has why).
// Each cuboid is described once: an alert-heavy unit reports tens of
// thousands of supporter lines over a few dozen cuboids.
func Report(out io.Writer, schema *cube.Schema) func([]*stream.Snapshot) {
	cuboidNames := make(map[cube.Cuboid]string)
	return func(snaps []*stream.Snapshot) {
		for _, s := range snaps {
			if s.Result == nil {
				fmt.Fprintf(out, "[unit %d] no data\n", s.Unit)
				continue
			}
			fmt.Fprintf(out, "[unit %d] %s: %d o-cells, %d exceptions, %d alerts\n",
				s.Unit, s.Result.Stats.Algorithm, s.Result.NumOCells(),
				s.Result.NumExceptions(), len(s.Alerts))
			for _, al := range s.Alerts {
				fmt.Fprintf(out, "  ALERT %s %s slope=%+.3f\n", al.Kind, al.Cell.Describe(schema), al.ISB.Slope)
				if al.Kind != stream.SlopeException {
					continue // a slope change has no supporters
				}
				for c := range s.Result.Supporters(al.Cell) {
					name, ok := cuboidNames[c.Key.Cuboid]
					if !ok {
						name = c.Key.Cuboid.Describe(schema)
						cuboidNames[c.Key.Cuboid] = name
					}
					fmt.Fprintf(out, "    supporter %s %s slope=%+.3f\n", c.Key.Describe(schema), name, c.ISB.Slope)
				}
			}
		}
	}
}

// Run is the node runtime: build the engine, restore the checkpoint,
// replay the WAL tail, start the query server and the alert lifecycle,
// consume the record stream until it ends or ctx is canceled, then shut
// down in order — stop ingest, finish the frame in hand, drain HTTP
// (parked snapshot followers released first), flush the final unit, fsync
// the WAL and cut the checkpoint, and finally close the alert handlers.
// Every closed unit the engine returns goes to the report and then to the
// alert lifecycle, on the ingest loop, in order. Reports and banners go to out;
// in feeds the analyzer unless Config.IngestListen is set.
func Run(ctx context.Context, cfg Config, in io.Reader, out io.Writer) error {
	alertsOn := cfg.AlertCrit > 0
	forecastOn := cfg.ForecastThreshold != 0 && cfg.ForecastHorizon > 0
	// Only the serving layer reads published snapshots.
	cfg.Engine.PublishSnapshots = cfg.Listen != ""

	a, err := cfg.Engine.Build()
	if err != nil {
		return err
	}
	defer a.Close()
	schema := a.Schema

	if cfg.Checkpoint != "" {
		if f, err := os.Open(cfg.Checkpoint); err == nil {
			err := a.LoadCheckpoint(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("restoring checkpoint: %w", err)
			}
			fmt.Fprintf(out, "# resumed at unit %d (%d units done)\n", a.Unit(), a.UnitsDone())
		}
	}

	report := Report(out, schema)

	// WAL plumbing. Every batch is appended to the log before ingest;
	// ingestedSeq counts records the engine has consumed, and is the
	// watermark checkpoints carry. saveCheckpoint fsyncs the log before
	// stamping it, so a checkpoint's watermark never points past the
	// durable log regardless of the sync policy. The counter is atomic
	// because /v1/info reports it from HTTP goroutines while the ingest
	// loop advances it.
	var wlog *wal.Log
	var ingestedSeq atomic.Int64

	// cutAt is the log's Appended count at the last checkpoint cut: what
	// the log has grown by since is the replay debt the policy weighs.
	// closedSinceCut says a unit has closed since that cut.
	var cpStats checkpointStats
	var cutAt int64
	var closedSinceCut bool

	saveCheckpoint := func() error {
		closedSinceCut = false
		if wlog != nil {
			if err := wlog.Sync(); err != nil {
				return fmt.Errorf("wal sync: %w", err)
			}
			if err := a.SetWALSeq(ingestedSeq.Load()); err != nil {
				return err
			}
		}
		if cfg.Checkpoint == "" {
			return nil
		}
		start := time.Now()
		n, err := persist.ReplaceFile(cfg.Checkpoint, a.WriteCheckpoint)
		if err != nil {
			return err
		}
		// The debt clears before the new size is published, so a scrape
		// that reads the size first never pairs it with a stale debt.
		if wlog != nil {
			cutAt = wlog.Appended()
			cpStats.walSince.Store(0)
		}
		cpStats.writes.Add(1)
		cpStats.bytes.Store(n)
		cpStats.nanos.Add(int64(time.Since(start)))
		return nil
	}

	// cutIfDue asks the checkpoint policy after a fully ingested batch or a
	// barrier — closed says it closed a unit, barrier that a barrier did —
	// and cuts when it answers yes. Replay and shutdown cut unasked.
	cutIfDue := func(closed, barrier bool) error {
		closedSinceCut = closedSinceCut || closed
		logSince := int64(-1) // no log behind the file
		if wlog != nil && cfg.Checkpoint != "" {
			logSince = wlog.Appended() - cutAt
		}
		if !checkpointDue(logSince, cpStats.bytes.Load(), closedSinceCut, barrier) {
			return nil
		}
		if err := saveCheckpoint(); err != nil {
			return fmt.Errorf("saving checkpoint: %w", err)
		}
		return nil
	}

	if cfg.WALDir != "" {
		policy, every, err := wal.ParseSyncPolicy(cfg.WALSync)
		if err != nil {
			return fmt.Errorf("bad -wal-sync: %w", err)
		}
		wlog, err = wal.Open(wal.Options{
			Dir:          cfg.WALDir,
			SegmentBytes: cfg.WALSegBytes,
			Sync:         policy,
			SyncEvery:    every,
		})
		if err != nil {
			return fmt.Errorf("-wal-dir: %w", err)
		}
		defer wlog.Close()
		mark := a.WALSeq()
		if wlog.Seq() < mark {
			return fmt.Errorf("checkpoint WAL watermark %d exceeds the %d-record log in %s (wrong -wal-dir?)",
				mark, wlog.Seq(), cfg.WALDir)
		}
		ingestedSeq.Store(mark)
		if wlog.Seq() > mark {
			// The crash window: records durably logged after the last
			// checkpoint was cut. Re-ingesting each logged batch, as live
			// ingest did, rebuilds the open unit exactly — ingest is
			// deterministic — and may close units whose reports were lost
			// with the crashed process.
			n, err := a.ReplayLog(cfg.WALDir, mark, report)
			if err != nil {
				return fmt.Errorf("replaying wal: %w", err)
			}
			ingestedSeq.Store(n)
			fmt.Fprintf(out, "# wal: replayed %d records (watermark %d -> %d)\n", n-mark, mark, n)
			if err := saveCheckpoint(); err != nil {
				return fmt.Errorf("saving checkpoint: %w", err)
			}
		}
	}

	// The alert lifecycle observes every unit the engine returns, after
	// the report, on the ingest loop (deliver); its handlers queue and
	// shed on their own goroutines, so a wedged webhook never stalls
	// ingest. It starts after WAL replay — replayed units re-close, and
	// re-alerting on them every restart would duplicate the events a live
	// run already emitted.
	deliver := report
	var mgr *alert.Manager
	if alertsOn || forecastOn {
		warn, crit := cfg.AlertWarn, cfg.AlertCrit
		if warn <= 0 {
			warn = crit / 2
		}
		if !alertsOn {
			// Forecast-only alerting: infinite slope thresholds pass the
			// manager's validation and keep the slope topics silent.
			warn, crit = math.Inf(1), math.Inf(1)
		}
		acfg := alert.Config{
			Schema:    schema,
			Warn:      warn,
			Crit:      crit,
			HoldUnits: cfg.AlertHold,
		}
		if forecastOn {
			acfg.ForecastBudget = cfg.ForecastHorizon
			acfg.ForecastThreshold = cfg.ForecastThreshold
		}
		mgr, err = alert.New(acfg)
		if err != nil {
			return err
		}
		mgr.Handle(&alert.LogHandler{Schema: schema, W: out})
		if cfg.AlertWebhook != "" {
			mgr.Handle(&alert.WebhookHandler{Schema: schema, URL: cfg.AlertWebhook})
		}
		deliver = func(snaps []*stream.Snapshot) {
			report(snaps)
			for _, s := range snaps {
				mgr.Observe(s)
			}
		}
	}

	// ingestStats counts the decode edge (records, frames, decode errors
	// per format); /metrics renders it when the query API is up.
	ingestStats := &wire.IngestStats{}

	// The query API serves concurrently with the ingest loop below; its
	// only contact with the engine is the atomic snapshot load (and the
	// alert manager's own locks).
	var srv *http.Server
	srvShutdown := func() {}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		handler := serve.New(a, schema)
		handler.SetMetrics(func(w io.Writer) {
			ingestStats.WriteMetrics(w)
			cpStats.writeMetrics(w)
			// The cell dictionary's size at the last close: the distinct
			// m-cells that unit held, summed over shards.
			fmt.Fprintf(w, "regcube_cells_active %d\n", a.CellsActive())
		})
		fdef := serve.ForecastDefaults{Horizon: cfg.ForecastHorizon, ChangeScore: cfg.ChangeScore}
		if cfg.ForecastThreshold != 0 {
			th := cfg.ForecastThreshold
			fdef.Threshold = &th
		}
		handler.SetForecastDefaults(fdef)
		if mgr != nil {
			handler.SetAlerts(mgr)
		}
		// The info closure runs on query goroutines: only flag-derived
		// constants and the atomic watermark — never engine calls, which
		// are coordinator-confined.
		handler.SetInfo(func() query.InfoResponse {
			return query.InfoResponse{
				NodeID:      cfg.NodeID,
				Role:        "node",
				Shards:      cfg.Engine.Shards,
				WireVersion: wire.Version,
				APIVersion:  query.APIVersion,
				WALSeq:      ingestedSeq.Load(),
			}
		})
		srv = serve.NewHTTPServer(handler)
		// Shutdown waits for active handlers: release a coordinator's
		// parked /v1/snapshot?wait= instead of waiting out its park.
		srv.RegisterOnShutdown(handler.Drain)
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "streamd: http: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "# serving http on %s\n", ln.Addr())
		srvShutdown = func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				fmt.Fprintf(os.Stderr, "streamd: http shutdown: %v\n", err)
			}
			srvShutdown = func() {}
		}
		// Normally run as step 3 of the ordered shutdown; the defer covers
		// early error returns.
		defer func() { srvShutdown() }()
	}

	// One goroutine reads, logs and ingests each frame in turn. The engine
	// belongs to whoever holds mu: that goroutine per frame, then the
	// shutdown for good (stopped). The signal interrupts a TCP read; a
	// blocked read from stdin cannot be, and dies with the process.
	var (
		mu      sync.Mutex
		stopped bool  // under mu
		runErr  error // under mu: the error that fails the run
		records int64
	)
	onFrame := func(b *wire.Batch, payload []byte, advance int64) (err error) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return ctx.Err() // the signal fired and the shutdown has the engine
		}
		defer func() { runErr = err }()
		if b == nil {
			// A router barrier: close every unit before the target, even
			// when this node received no records for some of them — the
			// cluster-wide analogue of the boundary crossing a single
			// engine sees in the record stream. Barriers are not
			// WAL-logged; the checkpoint cut after the closed units is
			// what makes their effect durable, so it is always due. A
			// barrier that closed nothing changed nothing.
			closed, err := a.AdvanceTo(advance)
			deliver(closed)
			if err != nil {
				return fmt.Errorf("advance to unit %d: %w", advance, err)
			}
			return cutIfDue(len(closed) > 0, len(closed) > 0)
		}
		if wlog != nil {
			// Write-ahead: the whole batch reaches the log (one frame;
			// durable per the sync policy) before the engine sees it. A
			// binary frame is logged as it was received, a text batch
			// encoded.
			if payload != nil {
				err = wlog.AppendPayload(payload, b)
			} else {
				err = wlog.AppendColumnar(b)
			}
			if err != nil {
				return fmt.Errorf("wal append: %w", err)
			}
			cpStats.walSince.Store(wlog.Appended() - cutAt)
		}
		closed, ingestErr := a.IngestBatch(b)
		if ingestErr == nil {
			ingestedSeq.Add(int64(b.Len()))
			records += int64(b.Len())
		}
		// Units can close even when a record is rejected (boundary
		// crossings happen first); deliver them before surfacing the error,
		// or their output would be lost. The checkpoint is only cut after
		// fully ingested batches, so its watermark is always exact.
		deliver(closed)
		if ingestErr != nil {
			return fmt.Errorf("record %d: %w", records+1, ingestErr)
		}
		return cutIfDue(len(closed) > 0, false)
	}
	consume := func() error {
		return readStream(ctx, in, a.Dims, ingestStats, wire.SourceStdin, onFrame)
	}
	if cfg.IngestListen != "" {
		// Routed ingest: accept the record stream over TCP instead of
		// stdin. The listener opens before the announce line, so a router
		// that waits for it can connect immediately; connections are
		// consumed one at a time (the engine is one logical stream), and a
		// connection's decode error drops that connection — the next
		// producer reconnects — instead of killing the node.
		ingestLn, err := net.Listen("tcp", cfg.IngestListen)
		if err != nil {
			return fmt.Errorf("-ingest-listen: %w", err)
		}
		fmt.Fprintf(out, "# ingest listening on %s\n", ingestLn.Addr())
		consume = func() error {
			return serveIngest(ctx, ingestLn, a.Dims, ingestStats, onFrame)
		}
	}
	ended := make(chan error, 1)
	go func() { ended <- consume() }()

	// Ordered shutdown, steps 1-2: ingest stops when the stream ends or
	// the signal fires (stop ingest), and the shutdown takes the engine
	// once the frame in hand is logged and applied (finish the frame in
	// hand). An error ingest met fails the run, and so does a parse error:
	// corrupt input never exits 0.
	var streamErr error
	select {
	case streamErr = <-ended:
	case <-ctx.Done():
	}
	mu.Lock()
	stopped = true
	if runErr != nil {
		streamErr = runErr
	}
	mu.Unlock()
	if streamErr != nil {
		return streamErr
	}
	if ctx.Err() != nil {
		fmt.Fprintln(out, "# signal: flushing final unit")
	}
	// Step 3: drain HTTP before the engine stops moving, so in-flight
	// queries finish against a live snapshot surface. Shutdown first fires
	// the server's drain signal, so a follower parked on /v1/snapshot is
	// answered 304 now rather than holding the shutdown for its park.
	srvShutdown()
	// Step 4: flush the final partial unit.
	last, err := a.Flush()
	if err != nil {
		return err
	}
	deliver([]*stream.Snapshot{last})
	// Step 5: fsync the WAL and cut the checkpoint — after this, the
	// checkpoint watermark equals the durable log length, so a graceful
	// shutdown replays nothing on restart.
	if err := saveCheckpoint(); err != nil {
		return fmt.Errorf("saving checkpoint: %w", err)
	}
	// Step 6: close the alert handlers. The flush's snapshot was observed
	// above; Close drains their queues, so the webhook and the log sink
	// see every event before the process exits.
	if mgr != nil {
		mgr.Close()
	}
	fmt.Fprintf(out, "# %d records, %d units\n", records, a.UnitsDone())
	return nil
}
