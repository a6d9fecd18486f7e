// Package serve exposes the online analyzer (§4.5) as a concurrent
// HTTP/JSON query API, so analysts can navigate regression cubes — ranked
// exceptions, drill-down supporters, slices, multi-unit trends — while the
// engine keeps ingesting at full rate.
//
// The server never touches engine internals: every request is answered
// from the immutable stream.Snapshot the engine publishes at each unit
// boundary (see DESIGN.md §7). Reading a snapshot is one atomic load, so
// query traffic adds zero contention to the ingest hot path, and every
// response is unit-consistent — all fields of one reply describe the same
// closed unit, even while newer units are being merged concurrently.
//
// Since the v2 query API (DESIGN.md §9) the server is a thin transport
// binding: each GET endpoint decodes its URL parameters into a typed
// query.Request, and a single query.Executor — cached per snapshot —
// validates and runs it. POST /v1/query accepts a JSON batch of the same
// typed requests and answers them all from one snapshot in one round
// trip; repro/client is the Go binding over it.
//
// Endpoints:
//
//	GET  /healthz               liveness + serving state
//	GET  /metrics               Prometheus-style counters
//	GET  /v1/summary            unit header, cube stats, per-cuboid exception counts
//	GET  /v1/exceptions         ranked exception cells (?k=, ?order=slope|key)
//	GET  /v1/alerts             the unit's o-layer alerts with drill-down
//	GET  /v1/alerts/events      recent alert lifecycle events (?k=)
//	GET  /v1/supporters         exception descendants of one cell (?levels=&members=&k=)
//	GET  /v1/slice              exceptions under one member (?dim=&level=&member=&k=)
//	GET  /v1/trend              k-unit trend regression of an o-cell (?members=&k=&level=)
//	GET  /v1/frame              per-level slot listing of an o-cell's tilted history (?members=)
//	GET  /v1/forecast           time-to-threshold forecast of an o-cell (?members=&k=&horizon=&threshold=)
//	GET  /v1/changes            tilt-level trend-change scan (?k=&score=)
//	POST /v1/query              batch of typed requests, one unit-consistent reply
//	GET  /v1/info               typed identity document (node, or coordinator plus its nodes)
//	GET  /v1/snapshot           the published snapshot in the binary wire codec (?after=&wait=:
//	                            304 unless a unit newer than after is published, parking up to wait ms for one;
//	                            ?have=unit.origin: the successor document when the snapshot follows that one)
//
// The GET endpoints are a compatibility surface: their JSON bodies are
// byte-identical to the pre-v2 handlers' (pinned by golden tests) and any
// method other than the registered one is rejected with 405 plus an Allow
// header. Integer parameters share one validation rule: explicit values
// below an endpoint's minimum (1 for ?k= limits, 0 for coordinates) are
// rejected with 400 before any snapshot is consulted.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/cube"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Source supplies published engine snapshots. The node passes its
// node.Analyzer (a *stream.Engine with Config.PublishSnapshots set); a
// bare *stream.Engine and the coordinator's gatherer implement it too. Snapshot must be safe for concurrent use.
type Source interface {
	Snapshot() *stream.Snapshot
}

// subscriber is the optional Source extension GET /v1/snapshot?wait= parks
// on: the engines have it (node.Analyzer through the one it embeds); a
// Source without it (the coordinator's gatherer) answers a wait at once.
type subscriber interface {
	Subscribe(buf int) *stream.Subscription
}

// maxPark caps how long GET /v1/snapshot?wait= holds a request. Shutdown
// releases parked requests at once (Drain); the cap is what a server torn
// down without it (httptest.Server.Close) waits for instead.
const maxPark = 500 * time.Millisecond

// maxQueryBodyBytes bounds a POST /v1/query body; larger requests are
// rejected with 413 before any decoding work.
const maxQueryBodyBytes = 1 << 20

// maxBatchQueries bounds the sub-requests of one batch.
const maxBatchQueries = 128

// routes is the API, one row per endpoint: its method and path, the label
// its regcube_http_* families carry on /metrics (in this order), and its
// handler.
var routes = [...]struct {
	pattern, label string
	handle         func(*Server, http.ResponseWriter, *http.Request) error
}{
	{"GET /healthz", "healthz", (*Server).handleHealthz},
	{"GET /metrics", "metrics", (*Server).handleMetrics},
	{"GET /v1/summary", "summary", (*Server).handleSummary},
	{"GET /v1/exceptions", "exceptions", (*Server).handleExceptions},
	{"GET /v1/alerts", "alerts", (*Server).handleAlerts},
	{"GET /v1/supporters", "supporters", (*Server).handleSupporters},
	{"GET /v1/slice", "slice", (*Server).handleSlice},
	{"GET /v1/trend", "trend", (*Server).handleTrend},
	{"GET /v1/frame", "frame", (*Server).handleFrame},
	{"POST /v1/query", "query", (*Server).handleQuery},
	{"GET /v1/info", "info", (*Server).handleInfo},
	{"GET /v1/snapshot", "snapshot", (*Server).handleSnapshot},
	{"GET /v1/alerts/events", "alertevents", (*Server).handleAlertEvents},
	{"GET /v1/forecast", "forecast", (*Server).handleForecast},
	{"GET /v1/changes", "changes", (*Server).handleChanges},
}

// endpointStats are one route's lock-free counters. The route's label is
// copied here: handleMetrics reading routes, which names it, would be an
// initialization cycle.
type endpointStats struct {
	label    string
	requests atomic.Int64
	errors   atomic.Int64
	nanos    atomic.Int64
}

// Server answers analyst queries from published engine snapshots. It is an
// http.Handler; all state it keeps (executor cache, metrics) is lock-free,
// so any number of requests proceed concurrently with each other and with
// ingestion.
type Server struct {
	src    Source
	schema *cube.Schema
	mux    *http.ServeMux
	start  time.Time
	// exec caches the query.Executor built over the latest snapshot, so
	// repeated requests against one unit reuse the lattice and the
	// exception sorts. Publication of a new snapshot simply misses the
	// cache; rebuilding is idempotent, so two racing requests at a
	// boundary at worst both build it.
	exec  atomic.Pointer[query.Executor]
	stats []endpointStats // one per route, in routes order
	// encodeErrors counts response bodies that failed mid-write (client
	// gone, connection reset); they also land in the per-endpoint error
	// counters.
	encodeErrors atomic.Int64
	// ingest, when set, is the daemon's ingest-edge counters (records,
	// frames, decode errors per format and source), rendered on /metrics.
	ingest *wire.IngestStats
	// info, when set, builds the /v1/info document. It runs per request on
	// a query goroutine, so it must be safe for concurrent use and must
	// not call engine methods (read atomics and snapshots instead).
	info func() query.InfoResponse
	// alerts, when set, backs GET /v1/alerts/events and the alert counter
	// families on /metrics. The manager's readers are concurrency-safe.
	alerts *alert.Manager
	// busDropped, when set, reports the snapshot bus's shed counter on
	// /metrics (an atomic load on the engine — safe from query goroutines).
	busDropped func() int64
	// fdef holds the node-configured fallbacks for the forecast GET shims.
	fdef ForecastDefaults
	// metrics, when set, appends the embedding process's own families to
	// /metrics (the coordinator's gather counters).
	metrics func(io.Writer)
	// drain is closed by Drain: parked snapshot requests answer at once and
	// later ones do not park.
	drain     chan struct{}
	drainOnce sync.Once
}

// ForecastDefaults are the node-configured fallbacks for the predictive
// GET shims: an absent ?horizon= on /v1/forecast falls back to Horizon,
// an absent ?threshold= to Threshold (nil means no threshold), and an
// absent ?score= on /v1/changes to ChangeScore. POST /v1/query batches
// carry explicit fields and never consult them.
type ForecastDefaults struct {
	Horizon     int64
	Threshold   *float64
	ChangeScore float64
}

// SetIngestStats attaches the ingest-edge counters rendered on /metrics.
// Call before serving; the stats object itself is concurrency-safe.
func (s *Server) SetIngestStats(st *wire.IngestStats) { s.ingest = st }

// SetInfo attaches the /v1/info document builder. Call before serving;
// without it the endpoint answers a minimal document derived from the
// snapshot alone.
func (s *Server) SetInfo(fn func() query.InfoResponse) { s.info = fn }

// SetAlerts attaches the alert lifecycle manager behind
// GET /v1/alerts/events and the regcube_alert_* metric families. Call
// before serving; without it the endpoint answers 404 (alerting is not
// configured on this node).
func (s *Server) SetAlerts(m *alert.Manager) { s.alerts = m }

// SetForecastDefaults attaches the predictive GET-shim fallbacks. Call
// before serving; with the zero value ?horizon= stays mandatory on
// /v1/forecast (request validation rejects the 0 fallback) and
// /v1/changes defaults to scoring every cell.
func (s *Server) SetForecastDefaults(d ForecastDefaults) { s.fdef = d }

// SetBusDropped attaches the snapshot-bus shed counter reported as
// regcube_snapshot_bus_dropped_total. Call before serving; the function
// must be safe for concurrent use (both engines' BusDropped is).
func (s *Server) SetBusDropped(fn func() int64) { s.busDropped = fn }

// SetMetrics attaches a writer of further Prometheus text families,
// rendered at the end of /metrics. Call before serving; the function must
// be safe for concurrent use.
func (s *Server) SetMetrics(fn func(io.Writer)) { s.metrics = fn }

// Drain makes every parked GET /v1/snapshot?wait= answer now and keeps
// later ones from parking. Register it with http.Server.RegisterOnShutdown:
// Shutdown waits for active handlers, and a follower's park would
// otherwise hold it for up to maxPark. Idempotent.
func (s *Server) Drain() { s.drainOnce.Do(func() { close(s.drain) }) }

// NewHTTPServer wraps h in the http.Server every daemon here listens
// with. The timeouts keep slow or stuck clients from pinning connections
// (and Shutdown) on a process that runs for days: headers within 5s, the
// whole request — including a POST /v1/query body — within 30s, idle
// keep-alives reaped after 2 minutes, headers capped at 64 KiB (query
// bodies are capped separately, at 1 MiB).
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
}

// New builds a query server over a snapshot source. Method-mismatched
// requests get 405 with an Allow header from the route patterns.
func New(src Source, schema *cube.Schema) *Server {
	s := &Server{
		src: src, schema: schema, mux: http.NewServeMux(), start: time.Now(),
		stats: make([]endpointStats, len(routes)), drain: make(chan struct{}),
	}
	for i, rt := range routes {
		st := &s.stats[i]
		st.label = rt.label
		s.mux.HandleFunc(rt.pattern, s.instrument(st, rt.handle))
	}
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError carries an HTTP status with a transport-level error (parse
// failures, body limits); semantic errors come out of query.Execute as
// its sentinels.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errEncode marks a response that failed while already being written —
// counted, but nothing more can be sent on the connection.
var errEncode = errors.New("serve: encoding response")

// errorStatus maps a handler error to its HTTP status and wire message.
func errorStatus(err error) (int, string) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.msg
	}
	return query.HTTPStatus(err), query.ErrorMessage(err)
}

// instrument wraps a route's handler with its counters and JSON error
// rendering.
func (s *Server) instrument(st *endpointStats, handle func(*Server, http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		err := handle(s, w, r)
		st.requests.Add(1)
		st.nanos.Add(time.Since(t0).Nanoseconds())
		if err != nil {
			st.errors.Add(1)
			if errors.Is(err, errEncode) {
				// The status line and part of the body are already on the
				// wire; there is nothing valid left to send.
				return
			}
			status, msg := errorStatus(err)
			_ = s.writeJSON(w, status, map[string]string{"error": msg})
		}
	}
}

// writeJSON writes a JSON response, counting encode failures (they feed
// the per-endpoint error counters through instrument and the dedicated
// regcube_http_encode_errors_total gauge).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErrors.Add(1)
		return fmt.Errorf("%w: %v", errEncode, err)
	}
	return nil
}

// executor returns the typed-query dispatcher over the latest snapshot,
// building and caching it on first use per unit.
func (s *Server) executor() (*query.Executor, error) {
	snap := s.src.Snapshot()
	if snap == nil {
		return nil, query.ErrUnavailable
	}
	old := s.exec.Load()
	if old != nil && old.Snapshot() == snap {
		return old, nil
	}
	ex, err := query.NewExecutor(s.schema, snap)
	if err != nil {
		return nil, err
	}
	// CompareAndSwap instead of Store: a laggard request that built an
	// executor for an older snapshot must not evict a newer entry another
	// request installed meanwhile. On failure this request just serves
	// from its locally built state.
	s.exec.CompareAndSwap(old, ex)
	return ex, nil
}

// run is the shared shim tail: validate the typed request (so bad
// requests 400 even before a snapshot exists), execute it against the
// cached dispatcher, and write the typed response.
func (s *Server) run(w http.ResponseWriter, req query.Request) error {
	if err := req.Validate(s.schema); err != nil {
		return err
	}
	ex, err := s.executor()
	if err != nil {
		return err
	}
	resp, err := ex.Execute(req)
	if err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// intParam parses an integer query parameter with a default. Explicitly
// supplied values below min are rejected with a uniform 400, so every
// endpoint shares one lower-bound rule instead of ad-hoc per-handler
// checks; the default is exempt (sentinels like -1 stay expressible) and
// is range-checked by query.Request validation where it matters.
func intParam(r *http.Request, name string, def, min int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s: %v", name, err)
	}
	if v < min {
		return 0, badRequest("parameter %s: %d below minimum %d", name, v, min)
	}
	return v, nil
}

// floatParam parses a float query parameter with a default. Range rules
// (including NaN rejection) live in query.Request validation, so the
// shims and POST /v1/query agree on them; only unparseable text is
// rejected here.
func floatParam(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %s: %v", name, err)
	}
	return v, nil
}

// cellRefParam decodes ?levels=&members= into a cell reference. Levels
// stay nil when absent — query.CellRef defaults them to the o-layer — so
// plain o-cell queries only pass members.
func cellRefParam(r *http.Request) (query.CellRef, error) {
	q := r.URL.Query()
	var ref query.CellRef
	if raw := q.Get("levels"); raw != "" {
		levels, err := parseIntList(raw)
		if err != nil {
			return ref, badRequest("parameter levels: %v", err)
		}
		ref.Levels = levels
	}
	members, err := parseInt32List(q.Get("members"))
	if err != nil {
		return ref, badRequest("parameter members: %v", err)
	}
	ref.Members = members
	return ref, nil
}

// --- /healthz -------------------------------------------------------------

type healthResponse struct {
	Status        string  `json:"status"`
	Serving       bool    `json:"serving"`
	Unit          int64   `json:"unit"`
	UnitsDone     int64   `json:"unitsDone"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// handleHealthz always answers 200: the process is alive even before the
// first unit closes; Serving reports whether queries would succeed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	resp := healthResponse{Status: "ok", Unit: -1, UptimeSeconds: time.Since(s.start).Seconds()}
	if snap := s.src.Snapshot(); snap != nil {
		resp.Serving = true
		resp.Unit = snap.Unit
		resp.UnitsDone = snap.UnitsDone
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// --- /metrics -------------------------------------------------------------

// handleMetrics renders Prometheus-style text so standard scrapers can
// watch the serving layer without a client library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "regcube_uptime_seconds %g\n", time.Since(s.start).Seconds())
	snap := s.src.Snapshot()
	serving := 0
	if snap != nil {
		serving = 1
	}
	fmt.Fprintf(w, "regcube_serving %d\n", serving)
	if snap != nil {
		fmt.Fprintf(w, "regcube_snapshot_unit %d\n", snap.Unit)
		fmt.Fprintf(w, "regcube_snapshot_units_done %d\n", snap.UnitsDone)
		fmt.Fprintf(w, "regcube_snapshot_alerts %d\n", len(snap.Alerts))
		if snap.Result != nil {
			fmt.Fprintf(w, "regcube_snapshot_ocells %d\n", snap.Result.NumOCells())
			fmt.Fprintf(w, "regcube_snapshot_exceptions %d\n", snap.Result.NumExceptions())
		}
	}
	if s.ingest != nil {
		for _, f := range wire.Formats {
			for _, src := range wire.Sources {
				fmt.Fprintf(w, "regcube_ingest_records_total{format=%q,source=%q} %d\n", f, src, s.ingest.Records(f, src))
				fmt.Fprintf(w, "regcube_ingest_frames_total{format=%q,source=%q} %d\n", f, src, s.ingest.Frames(f, src))
				fmt.Fprintf(w, "regcube_ingest_decode_errors_total{format=%q,source=%q} %d\n", f, src, s.ingest.DecodeErrors(f, src))
			}
		}
	}
	if s.busDropped != nil {
		fmt.Fprintf(w, "regcube_snapshot_bus_dropped_total %d\n", s.busDropped())
	}
	if s.alerts != nil {
		st := s.alerts.Stats()
		for li, level := range alert.Levels {
			for ti, topic := range alert.Topics {
				fmt.Fprintf(w, "regcube_alert_events_total{level=%q,topic=%q} %d\n",
					level, topic, st.Events[li][ti])
			}
		}
		fmt.Fprintf(w, "regcube_alert_handler_retries_total %d\n", st.HandlerRetries)
		fmt.Fprintf(w, "regcube_alert_handler_drops_total %d\n", st.HandlerDrops)
	}
	fmt.Fprintf(w, "regcube_http_encode_errors_total %d\n", s.encodeErrors.Load())
	for i := range s.stats {
		st := &s.stats[i]
		fmt.Fprintf(w, "regcube_http_requests_total{endpoint=%q} %d\n", st.label, st.requests.Load())
		fmt.Fprintf(w, "regcube_http_errors_total{endpoint=%q} %d\n", st.label, st.errors.Load())
		fmt.Fprintf(w, "regcube_http_request_nanos_total{endpoint=%q} %d\n", st.label, st.nanos.Load())
	}
	writeGCMetrics(w)
	if s.metrics != nil {
		s.metrics(w)
	}
	return nil
}

// writeGCMetrics renders the collector's cycle count and pause total from
// runtime/metrics, which — unlike runtime.ReadMemStats — does not stop the
// world to be read. Against regcube_snapshot_units_done the first is "GC
// cycles per unit", the number a unit's allocations decide. The runtime
// accounts pauses as CPU time, GOMAXPROCS times the wall-clock pause, so
// the total is divided back.
func writeGCMetrics(w io.Writer) {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(samples)
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		fmt.Fprintf(w, "regcube_gc_cycles_total %d\n", v.Uint64())
	}
	if v := samples[1].Value; v.Kind() == metrics.KindFloat64 {
		fmt.Fprintf(w, "regcube_gc_pause_nanos_total %d\n", int64(v.Float64()/float64(runtime.GOMAXPROCS(0))*1e9))
	}
}

// --- GET shims over the typed request model -------------------------------

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) error {
	return s.run(w, query.SummaryRequest{})
}

func (s *Server) handleExceptions(w http.ResponseWriter, r *http.Request) error {
	k, err := intParam(r, "k", 20, 1)
	if err != nil {
		return err
	}
	return s.run(w, query.ExceptionsRequest{K: k, Order: r.URL.Query().Get("order")})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) error {
	return s.run(w, query.AlertsRequest{})
}

func (s *Server) handleSupporters(w http.ResponseWriter, r *http.Request) error {
	ref, err := cellRefParam(r)
	if err != nil {
		return err
	}
	// 0 is the "no limit" default; explicit limits must be ≥ 1.
	k, err := intParam(r, "k", 0, 1)
	if err != nil {
		return err
	}
	return s.run(w, query.SupportersRequest{CellRef: ref, K: k})
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) error {
	dim, err := intParam(r, "dim", -1, 0)
	if err != nil {
		return err
	}
	// The level default is the sliced dimension's o-level; when dim is
	// itself invalid, request validation rejects it before level matters.
	levelDef := 0
	if dim >= 0 && dim < len(s.schema.Dims) {
		levelDef = s.schema.Dims[dim].OLevel
	}
	level, err := intParam(r, "level", levelDef, 0)
	if err != nil {
		return err
	}
	member, err := intParam(r, "member", -1, 0)
	if err != nil {
		return err
	}
	if member > math.MaxInt32 {
		return badRequest("parameter member: %d overflows int32", member)
	}
	// 0 is the "no limit" default; explicit limits must be ≥ 1.
	k, err := intParam(r, "k", 0, 1)
	if err != nil {
		return err
	}
	return s.run(w, query.SliceRequest{Dim: dim, Level: level, Member: int32(member), K: k})
}

func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) error {
	ref, err := cellRefParam(r)
	if err != nil {
		return err
	}
	k, err := intParam(r, "k", 1, 1)
	if err != nil {
		return err
	}
	level, err := intParam(r, "level", 0, 0)
	if err != nil {
		return err
	}
	return s.run(w, query.TrendRequest{CellRef: ref, K: k, Level: level})
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) error {
	ref, err := cellRefParam(r)
	if err != nil {
		return err
	}
	return s.run(w, query.FrameRequest{CellRef: ref})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) error {
	ref, err := cellRefParam(r)
	if err != nil {
		return err
	}
	// 0 is the "all recorded units" default; explicit windows must be ≥ 1.
	k, err := intParam(r, "k", 0, 1)
	if err != nil {
		return err
	}
	horizon, err := intParam(r, "horizon", int(s.fdef.Horizon), 1)
	if err != nil {
		return err
	}
	threshold := s.fdef.Threshold
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return badRequest("parameter threshold: %v", err)
		}
		threshold = &v
	}
	return s.run(w, query.ForecastRequest{CellRef: ref, K: k, Horizon: int64(horizon), Threshold: threshold})
}

func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) error {
	// 0 is the "no limit" default; explicit limits must be ≥ 1.
	k, err := intParam(r, "k", 0, 1)
	if err != nil {
		return err
	}
	score, err := floatParam(r, "score", s.fdef.ChangeScore)
	if err != nil {
		return err
	}
	return s.run(w, query.ChangesRequest{K: k, MinScore: score})
}

// --- POST /v1/query -------------------------------------------------------

// handleQuery answers a JSON batch of typed requests from one snapshot:
// every sub-result is unit-consistent with every other, and per-request
// errors land in the matching result slot without failing the batch. The
// body is size-limited; an over-long or undecodable batch (including an
// unknown request kind) fails as a whole.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)
	var batch query.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("decoding batch: %v", err)
	}
	if len(batch.Queries) == 0 {
		return badRequest("batch has no queries")
	}
	if len(batch.Queries) > maxBatchQueries {
		return badRequest("batch of %d queries exceeds limit %d", len(batch.Queries), maxBatchQueries)
	}
	ex, err := s.executor()
	if err != nil {
		return err
	}
	// ExecuteBatch encoded every result already; the envelope goes around
	// them as they are, where writeJSON's encoder would re-scan each one.
	// The bytes are the encoder's, trailing newline included.
	body := append(ex.ExecuteBatch(batch.Queries).AppendJSON(nil), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.encodeErrors.Add(1)
		return fmt.Errorf("%w: %v", errEncode, err)
	}
	return nil
}

// --- GET /v1/info ---------------------------------------------------------

// handleInfo answers the typed identity document: node id, role, shard
// count, wire/API versions, WAL watermark, snapshot unit — the fields
// operators previously had to scrape from /healthz and /metrics. Like
// /healthz it always answers 200; a process with no snapshot yet reports
// SnapshotUnit -1.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	var resp query.InfoResponse
	if s.info != nil {
		resp = s.info()
	} else {
		resp = query.InfoResponse{Role: "node", WireVersion: wire.Version, APIVersion: query.APIVersion}
	}
	resp.SnapshotUnit = -1
	if snap := s.src.Snapshot(); snap != nil {
		resp.SnapshotUnit = snap.Unit
		resp.UnitsDone = snap.UnitsDone
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// --- GET /v1/alerts/events ------------------------------------------------

// handleAlertEvents lists recent lifecycle events (?k= caps the count,
// default 50, oldest first) from the alert manager's ring buffer. It is
// push-side state, not snapshot state: events survive their unit's
// snapshot being superseded, and the endpoint answers even before the
// first unit closes. Nodes without alerting configured answer 404.
func (s *Server) handleAlertEvents(w http.ResponseWriter, r *http.Request) error {
	if s.alerts == nil {
		return &apiError{status: http.StatusNotFound, msg: "alerting not configured"}
	}
	k, err := intParam(r, "k", 50, 1)
	if err != nil {
		return err
	}
	evs := s.alerts.Events(k)
	resp := query.AlertEventsResponse{Count: len(evs), Events: make([]alert.EventJSON, len(evs))}
	for i, e := range evs {
		resp.Events[i] = e.JSON(s.schema)
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// --- GET /v1/snapshot -----------------------------------------------------

// handleSnapshot ships the latest published snapshot in the canonical
// binary codec — the cluster gather tier's transfer edge. Analysts never
// need it; the coordinator mirrors every node through it and merges.
//
// It is a conditional GET. ?after=U answers 304 unless the published unit
// is newer than U; ?wait=ms (capped at maxPark) parks such a request until
// a newer unit is published, so a follower learns of a unit the moment it
// exists instead of polling for it. Without parameters it returns the
// current snapshot, 503 before the first unit.
//
// ?have=U.O names the snapshot the requester holds: unit U of origin O
// (Snapshot.Origin, in hex). When the answer is the next unit of that
// origin it goes as the successor document (stream.EncodeSuccessor), which
// leaves out the frames the requester rebuilds from its own; anything else
// — no have, a gap, another origin (a restarted engine) — gets the whole
// document (stream.EncodeSnapshot).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	after := int64(-1)
	if raw := q.Get("after"); raw != "" {
		var err error
		if after, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return badRequest("parameter after: %v", err)
		}
	}
	var haveUnit int64
	var haveOrigin uint64
	if raw := q.Get("have"); raw != "" {
		u, o, _ := strings.Cut(raw, ".")
		var err error
		if haveUnit, err = strconv.ParseInt(u, 10, 64); err != nil {
			return badRequest("parameter have: unit: %v", err)
		}
		if haveOrigin, err = strconv.ParseUint(o, 16, 64); err != nil {
			return badRequest("parameter have: origin: %v", err)
		}
	}
	wait, err := intParam(r, "wait", 0, 0)
	if err != nil {
		return err
	}
	snap := s.src.Snapshot()
	if src, ok := s.src.(subscriber); ok && wait > 0 && (snap == nil || snap.Unit <= after) {
		snap = s.park(r.Context(), src, after, min(time.Duration(wait)*time.Millisecond, maxPark))
	}
	if snap == nil {
		return query.ErrUnavailable
	}
	if snap.Unit <= after {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	encode := stream.EncodeSnapshot
	if snap.Origin != 0 && snap.Origin == haveOrigin && snap.Unit == haveUnit+1 {
		encode = stream.EncodeSuccessor
	}
	data, err := encode(snap)
	if err != nil {
		return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		s.encodeErrors.Add(1)
		return fmt.Errorf("%w: %v", errEncode, err)
	}
	return nil
}

// park waits on the source's snapshot bus until a unit newer than after is
// published, the wait runs out, the server drains or the client goes, and
// returns what is published then. It subscribes first and looks again
// before every wait, so a publish between the caller's look and the
// subscription is seen, not slept through. The subscription exists only
// while a follower is parked: a node nobody follows runs none of this.
func (s *Server) park(ctx context.Context, src subscriber, after int64, wait time.Duration) *stream.Snapshot {
	sub := src.Subscribe(1).Coalesce()
	defer sub.Close()
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	for {
		if snap := s.src.Snapshot(); snap != nil && snap.Unit > after {
			return snap
		}
		select {
		case <-sub.C():
			continue
		case <-timeout.C:
		case <-s.drain:
		case <-ctx.Done():
		}
		return s.src.Snapshot()
	}
}
