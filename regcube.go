// Package regcube is a Go implementation of "Multi-Dimensional Regression
// Analysis of Time-Series Data Streams" (Chen, Dong, Han, Wah, Wang —
// VLDB 2002): regression-measured data cubes over streaming time series.
//
// The library lets you:
//
//   - compress any time series into a 4-number ISB regression measure and
//     aggregate those measures losslessly across standard dimensions and
//     the time dimension (Theorems 3.2/3.3);
//   - register time at multiple granularities with a tilt time frame
//     (71 slots instead of 35,136 for a year of quarter-hours);
//   - compute exception-based regression cubes between an m-layer and an
//     o-layer with either of the paper's two algorithms, m/o H-cubing and
//     popular-path cubing, on an H-tree substrate, and the change-based
//     cube between two windows (DeltaCubing);
//   - run the whole pipeline online over raw stream records, with o-layer
//     alerts and exception drill-down — the stream engine cubes every unit
//     with m/o H-cubing, the algorithm that finds every exception cell;
//   - generalize to multiple linear regression (spatio-temporal sensors,
//     irregular ticks, log/polynomial/exponential bases).
//
// This root package is a facade over the internal packages; see
// examples/quickstart for a guided tour and DESIGN.md for the system map.
package regcube

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/mlr"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/regression"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tilt"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// Time-series substrate (paper §2.2).
type (
	// Series is a discrete time series z(t) over [tb, te].
	Series = timeseries.Series
	// Interval is a closed integer tick range.
	Interval = timeseries.Interval
	// Synth generates deterministic synthetic series.
	Synth = timeseries.Synth
)

// Regression measures (paper §3).
type (
	// ISB is the compact (Interval, Slope, Base) regression measure.
	ISB = regression.ISB
	// IntVal is the equivalent endpoint representation.
	IntVal = regression.IntVal
	// Accumulator fits a growing series in O(1) space.
	Accumulator = regression.Accumulator
	// ResidualStats carries RSS/TSS/R² diagnostics.
	ResidualStats = regression.ResidualStats
	// FoldFunc selects the §6.2 folding aggregate.
	FoldFunc = regression.FoldFunc
)

// Folding aggregates (paper §6.2).
const (
	FoldSum  = regression.FoldSum
	FoldAvg  = regression.FoldAvg
	FoldMin  = regression.FoldMin
	FoldMax  = regression.FoldMax
	FoldLast = regression.FoldLast
)

// Multi-dimensional schema (paper §2.1, §4.2).
type (
	// Schema describes dimensions and the two critical layers.
	Schema = cube.Schema
	// Dimension binds a hierarchy to its m- and o-levels.
	Dimension = cube.Dimension
	// Hierarchy is a concept hierarchy over one dimension.
	Hierarchy = cube.Hierarchy
	// FanoutHierarchy is the synthetic benchmark hierarchy.
	FanoutHierarchy = cube.FanoutHierarchy
	// NamedHierarchy is an explicitly enumerated hierarchy.
	NamedHierarchy = cube.NamedHierarchy
	// Cuboid is one group-by between the critical layers.
	Cuboid = cube.Cuboid
	// CellKey identifies one cell of one cuboid.
	CellKey = cube.CellKey
	// Lattice is the cuboid lattice between the critical layers.
	Lattice = cube.Lattice
	// Path is a popular drilling path through the lattice.
	Path = cube.Path
)

// Exception framework (paper §4.3).
type (
	// Thresholder supplies per-cuboid exception thresholds.
	Thresholder = exception.Thresholder
	// GlobalThreshold applies one threshold cube-wide.
	GlobalThreshold = exception.Global
	// PerCuboidThreshold overrides thresholds per cuboid.
	PerCuboidThreshold = exception.PerCuboid
	// PerDepthThreshold scales thresholds by cuboid depth.
	PerDepthThreshold = exception.PerDepth
	// DeltaDetector flags slope changes between consecutive windows.
	DeltaDetector = exception.Delta
)

// Cube engine (paper §4.4) and online operation (§4.5).
type (
	// Input is one m-layer tuple for the cube engine.
	Input = core.Input
	// Cell is a retained (cell, measure) pair.
	Cell = core.Cell
	// Result is a cubing outcome with stats.
	Result = core.Result
	// Stats carries the paper's time/space cost measures.
	Stats = core.Stats
	// StreamEngine is the online analyzer.
	StreamEngine = stream.Engine
	// StreamConfig configures the online analyzer.
	StreamConfig = stream.Config
	// UnitResult is the outcome of one completed stream unit.
	UnitResult = stream.UnitResult
	// Alert is one o-layer observation with drill-down supporters.
	Alert = stream.Alert
)

// Tilt time frame (paper §4.1).
type (
	// Frame is a multi-granularity regression register over raw ticks.
	Frame = tilt.Frame
	// UnitFrame is a tilt frame fed with completed-unit ISBs.
	UnitFrame = tilt.UnitFrame
	// UnitFrameState is the serializable state of a UnitFrame.
	UnitFrameState = tilt.UnitFrameState
	// FrameLevel configures one granularity of a frame.
	FrameLevel = tilt.Level
	// FrameSlot is one completed unit at some granularity.
	FrameSlot = tilt.Slot
)

// RestoreUnitFrame rebuilds a unit frame from checkpointed state.
func RestoreUnitFrame(levels []FrameLevel, st UnitFrameState) (*UnitFrame, error) {
	return tilt.RestoreUnitFrame(levels, st)
}

// Result navigation (the analyst's drill-down workflow).
type (
	// ResultView navigates a cubing result: rankings, supporters, slices.
	ResultView = query.View
	// CuboidSummary aggregates one cuboid's retained exceptions.
	CuboidSummary = query.CuboidSummary
)

// Multiple linear regression extension (paper §6.2).
type (
	// MLR is the sufficient-statistic multiple-regression representation.
	MLR = mlr.NCR
	// MLRBasis maps raw regressors to design-matrix features.
	MLRBasis = mlr.Basis
	// MLRModel is a fitted multiple regression.
	MLRModel = mlr.Model
)

// Synthetic workloads (paper §5).
type (
	// DatasetSpec is the D/L/C/T dataset shape.
	DatasetSpec = gen.Spec
	// Dataset is a generated workload.
	Dataset = gen.Dataset
	// DatasetConfig controls generation.
	DatasetConfig = gen.Config
)

// NewSeries builds a series over [tb, tb+len(values)-1].
func NewSeries(tb int64, values []float64) (*Series, error) { return timeseries.New(tb, values) }

// Fit computes the least-squares ISB of a raw series (Lemma 3.1).
func Fit(s *Series) (ISB, error) { return regression.Fit(s) }

// AggregateStandard rolls ISBs up a standard dimension (Theorem 3.2).
func AggregateStandard(isbs ...ISB) (ISB, error) { return regression.AggregateStandard(isbs...) }

// AggregateTime rolls adjacent-interval ISBs up the time dimension
// (Theorem 3.3).
func AggregateTime(isbs ...ISB) (ISB, error) { return regression.AggregateTime(isbs...) }

// Residuals computes RSS/TSS/R² of an ISB against its raw series.
func Residuals(s *Series, isb ISB) (ResidualStats, error) { return regression.Residuals(s, isb) }

// Fold folds k fine ticks per coarse tick with a SQL aggregate (§6.2).
func Fold(s *Series, k int, f FoldFunc) (*Series, error) { return regression.Fold(s, k, f) }

// FoldISB folds a fitted line in closed form, without raw data (§6.2).
func FoldISB(r ISB, k int, f FoldFunc) (ISB, error) { return regression.FoldISB(r, k, f) }

// NewAccumulator returns an O(1)-space online fitter starting at tick tb.
func NewAccumulator(tb int64) *Accumulator { return regression.NewAccumulator(tb) }

// NewSchema validates dimensions and critical layers.
func NewSchema(dims ...Dimension) (*Schema, error) { return cube.NewSchema(dims...) }

// NewFanoutHierarchy builds a uniform-fanout hierarchy.
func NewFanoutHierarchy(name string, fanout, levels int) (*FanoutHierarchy, error) {
	return cube.NewFanoutHierarchy(name, fanout, levels)
}

// NewNamedHierarchy builds an explicitly enumerated hierarchy.
func NewNamedHierarchy(name string) *NamedHierarchy { return cube.NewNamedHierarchy(name) }

// NewLattice materializes the cuboid lattice of a schema.
func NewLattice(s *Schema) *Lattice { return cube.NewLattice(s) }

// MOCubing runs the paper's Algorithm 1 (m/o H-cubing).
func MOCubing(s *Schema, inputs []Input, thr Thresholder) (*Result, error) {
	return core.MOCubing(s, inputs, thr)
}

// PopularPath runs the paper's Algorithm 2 (popular-path cubing).
func PopularPath(s *Schema, inputs []Input, thr Thresholder, path Path) (*Result, error) {
	return core.PopularPath(s, inputs, thr, path)
}

// DeltaCell pairs a cell's current and previous-window regressions.
type DeltaCell = core.DeltaCell

// DeltaResult is the change-based exception cube between two windows.
type DeltaResult = core.DeltaResult

// DeltaCubing computes the "current cell vs. the previous one" exception
// cube between two adjacent time windows (§4.3).
func DeltaCubing(s *Schema, cur, prev []Input, det DeltaDetector) (*DeltaResult, error) {
	return core.DeltaCubing(s, cur, prev, det)
}

// ShardedStreamEngine is the parallel online analyzer: m-layer cells
// hash-partition by o-layer ancestor across per-shard engines that ingest
// and cube concurrently, merging into results identical to a single
// engine's (alerts deterministically sorted). See DESIGN.md §6.
type ShardedStreamEngine = stream.ShardedEngine

// NewShardedStreamEngine builds a sharded online analyzer with the given
// shard count (≥ 1; runtime.GOMAXPROCS(0) is the natural default). Call
// Close when done.
func NewShardedStreamEngine(cfg StreamConfig, shards int) (*ShardedStreamEngine, error) {
	return stream.NewShardedEngine(cfg, shards)
}

// StreamSnapshot is the immutable per-unit view an engine publishes when
// StreamConfig.PublishSnapshots is set: the unit's cube result, alerts in
// canonical order, and every o-cell's tilt frame (its trailing history is
// the frame's finest level: HistoryOf, TrendQuery). Reading one (via
// the engine's Snapshot method) is a single atomic load, safe from any
// goroutine concurrently with ingestion.
type StreamSnapshot = stream.Snapshot

// StreamHistoryPoint is one completed unit of an o-cell's history — a
// finest-level frame slot named by engine unit — as StreamSnapshot.HistoryOf
// returns it.
type StreamHistoryPoint = stream.HistoryPoint

// StreamFrameView is the immutable multi-granularity view of one o-cell's
// history, published through every snapshot (§4.1 over the online engine);
// StreamConfig.TiltLevels names its level chain, by default the one level
// unit:1:64.
type StreamFrameView = stream.FrameView

// StreamFrameLevelView is one granularity of a StreamFrameView.
type StreamFrameLevelView = stream.FrameLevelView

// StreamCellFrame is the checkpoint record of one o-cell's history.
type StreamCellFrame = stream.CellFrame

// SnapshotSource supplies published snapshots to the query server; both
// stream engine flavors implement it.
type SnapshotSource = serve.Source

// QueryServer is the HTTP/JSON analyst query API over published engine
// snapshots: the GET endpoints (/v1/exceptions, /v1/supporters,
// /v1/slice, /v1/trend with ?level= for tilted granularities, /v1/frame,
// /v1/alerts, /v1/summary, /healthz, /metrics) plus POST /v1/query, the
// typed batch endpoint of the query API v2. It is an http.Handler; see
// DESIGN.md §7 for the snapshot-publication protocol behind it, §8 for
// the tilt-frame history, and §9 for the typed request model. The Go client
// SDK for the API lives in the repro/client package.
type QueryServer = serve.Server

// NewQueryServer builds the analyst query API over a snapshot source.
func NewQueryServer(src SnapshotSource, schema *Schema) *QueryServer {
	return serve.New(src, schema)
}

// Typed query API v2 (DESIGN.md §9): transport-independent request and
// response models. Build requests, execute them in-process against a
// snapshot with a QueryExecutor, or send them over HTTP with
// repro/client.
type (
	// QueryRequest is the typed request union: summary / exceptions /
	// alerts / supporters / slice / trend / frame.
	QueryRequest = query.Request
	// QueryKind discriminates requests on the wire.
	QueryKind = query.Kind
	// QueryCellRef names one cell by levels and members (nil levels =
	// o-layer).
	QueryCellRef = query.CellRef
	// QuerySummaryRequest asks for the unit header and cuboid rollup.
	QuerySummaryRequest = query.SummaryRequest
	// QueryExceptionsRequest asks for ranked exception cells.
	QueryExceptionsRequest = query.ExceptionsRequest
	// QueryAlertsRequest asks for the unit's o-layer alerts.
	QueryAlertsRequest = query.AlertsRequest
	// QuerySupportersRequest asks for a cell's exception descendants.
	QuerySupportersRequest = query.SupportersRequest
	// QuerySliceRequest asks for the exceptions under one member.
	QuerySliceRequest = query.SliceRequest
	// QueryTrendRequest asks for a k-unit trend regression of an o-cell.
	QueryTrendRequest = query.TrendRequest
	// QueryFrameRequest asks for an o-cell's tilt frame listing.
	QueryFrameRequest = query.FrameRequest
	// QueryResponse is the typed response union.
	QueryResponse = query.Response
	// QuerySummaryResponse answers QuerySummaryRequest.
	QuerySummaryResponse = query.SummaryResponse
	// QueryCellsResponse answers exceptions and slice requests.
	QueryCellsResponse = query.CellsResponse
	// QueryAlertsResponse answers QueryAlertsRequest.
	QueryAlertsResponse = query.AlertsResponse
	// QuerySupportersResponse answers QuerySupportersRequest.
	QuerySupportersResponse = query.SupportersResponse
	// QueryTrendResponse answers QueryTrendRequest.
	QueryTrendResponse = query.TrendResponse
	// QueryFrameResponse answers QueryFrameRequest.
	QueryFrameResponse = query.FrameResponse
	// QueryBatchRequest is the POST /v1/query body: many requests, one
	// unit-consistent reply.
	QueryBatchRequest = query.BatchRequest
	// QueryBatchResponse is the batch reply with per-request results.
	QueryBatchResponse = query.BatchResponse
	// QueryExecutor validates and runs typed requests against one
	// published snapshot.
	QueryExecutor = query.Executor
)

// Query API sentinel errors; test with errors.Is (the client SDK maps
// HTTP statuses back onto them).
var (
	// ErrQueryInvalid marks requests that can never succeed (HTTP 400).
	ErrQueryInvalid = query.ErrInvalid
	// ErrQueryNotFound marks targets absent from the unit (HTTP 404).
	ErrQueryNotFound = query.ErrNotFound
	// ErrQueryUnavailable means no unit has completed yet (HTTP 503).
	ErrQueryUnavailable = query.ErrUnavailable
)

// NewQueryExecutor builds the typed-request dispatcher over one published
// snapshot — the in-process path the HTTP server and the client SDK both
// run through.
func NewQueryExecutor(schema *Schema, snap *StreamSnapshot) (*QueryExecutor, error) {
	return query.NewExecutor(schema, snap)
}

// QueryOCell references an o-layer cell by its members.
func QueryOCell(members ...int32) QueryCellRef { return query.OCell(members...) }

// QueryCell references a cell at explicit levels.
func QueryCell(levels []int, members []int32) QueryCellRef {
	return query.Cell(levels, members)
}

// FitMLRRaw fits a multiple regression by Householder QR on the raw
// design matrix — the robust path for ill-conditioned bases.
func FitMLRRaw(b MLRBasis, vars [][]float64, ys []float64) (*MLRModel, error) {
	return mlr.FitRaw(b, vars, ys)
}

// NewStreamEngine builds the online analyzer of §4.5.
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) { return stream.NewEngine(cfg) }

// NewFrame builds a tilt time frame from a level chain.
func NewFrame(levels []FrameLevel, startTick int64) (*Frame, error) {
	return tilt.New(levels, startTick)
}

// NewUnitFrame builds a tilt frame fed with completed-unit ISBs.
func NewUnitFrame(levels []FrameLevel) (*UnitFrame, error) { return tilt.NewUnitFrame(levels) }

// NewResultView builds the drill-down navigation view over a result.
func NewResultView(res *Result) *ResultView { return query.NewView(res) }

// MLRInference carries coefficient standard errors and t-values.
type MLRInference = mlr.Inference

// CalendarFrameLevels returns the paper's quarter/hour/day/month frame.
func CalendarFrameLevels() []FrameLevel { return tilt.CalendarLevels() }

// LogarithmicFrameLevels returns a doubling-coverage frame (extension).
func LogarithmicFrameLevels(levels, ticksPerUnit, slots int) []FrameLevel {
	return tilt.LogarithmicLevels(levels, ticksPerUnit, slots)
}

// NewMLR returns an empty multiple-regression representation (§6.2).
func NewMLR(b MLRBasis) *MLR { return mlr.New(b) }

// TimeBasis is the (1,t) basis matching the paper's (α̂, β̂).
func TimeBasis() MLRBasis { return mlr.TimeBasis() }

// LinearBasis is an intercept plus d raw regressors.
func LinearBasis(d int) MLRBasis { return mlr.LinearBasis(d) }

// PolynomialBasis is (1, t, …, t^degree).
func PolynomialBasis(degree int) MLRBasis { return mlr.PolynomialBasis(degree) }

// LogBasis is (1, log v).
func LogBasis() MLRBasis { return mlr.LogBasis() }

// ExpBasis is (1, e^(rate·v)).
func ExpBasis(rate float64) MLRBasis { return mlr.ExpBasis(rate) }

// MergeMLRTime merges multiple-regression statistics over concatenated
// observation sets (time-dimension roll-up).
func MergeMLRTime(parts ...*MLR) (*MLR, error) { return mlr.MergeTime(parts...) }

// MergeMLRStandard merges multiple-regression statistics over summed
// responses at shared design points (standard-dimension roll-up).
func MergeMLRStandard(tol float64, parts ...*MLR) (*MLR, error) {
	return mlr.MergeStandard(tol, parts...)
}

// ParseDatasetSpec parses the paper's D#L#C#T# workload convention.
func ParseDatasetSpec(s string) (DatasetSpec, error) { return gen.ParseSpec(s) }

// GenerateDataset builds a synthetic workload.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return gen.Generate(cfg) }

// IsException reports whether an ISB's slope magnitude passes a threshold.
func IsException(isb ISB, threshold float64) bool { return exception.IsException(isb, threshold) }

// StreamCheckpoint is the serializable state of a stream engine, sharded
// or not: engines at the same stream position export identical
// checkpoints, and one restores into any shard count.
type StreamCheckpoint = stream.Checkpoint

// WriteResult serializes a cubing result's retained layers as JSON.
func WriteResult(w io.Writer, res *Result) error { return persist.WriteResult(w, res) }

// ReadResult deserializes a cubing result against its schema.
func ReadResult(r io.Reader, schema *Schema) (*Result, error) { return persist.ReadResult(r, schema) }

// WriteCheckpoint serializes a stream-engine checkpoint as the binary
// checkpoint document (version 5), in one Write.
func WriteCheckpoint(w io.Writer, cp *StreamCheckpoint) error {
	return persist.WriteCheckpoint(w, cp)
}

// ReadCheckpoint deserializes a stream-engine checkpoint of any version —
// the binary document, or the JSON envelopes of versions 1 to 4; the
// per-shard files older releases wrote for sharded engines are merged into
// the one canonical checkpoint.
func ReadCheckpoint(r io.Reader) (*StreamCheckpoint, error) { return persist.ReadCheckpoint(r) }

// Durable ingest (DESIGN.md §10): a segmented, CRC32C-framed write-ahead
// record log. streamd appends every record before ingest; recovery replays
// the durable suffix past a checkpoint's watermark, and `regcube replay`
// re-runs a whole log under a different configuration.
type (
	// WALRecord is one logged stream record: (members, tick, value).
	WALRecord = wal.Record
	// WALOptions configures OpenWAL: directory, segment size, sync policy.
	WALOptions = wal.Options
	// WALLog is an open, appendable write-ahead log.
	WALLog = wal.Log
	// WALSyncPolicy selects when appends are fsynced.
	WALSyncPolicy = wal.SyncPolicy
	// WALSegmentInfo describes one log segment.
	WALSegmentInfo = wal.SegmentInfo
)

// WAL sync policies.
const (
	WALSyncBatch    = wal.SyncBatch
	WALSyncInterval = wal.SyncInterval
	WALSyncOff      = wal.SyncOff
)

// WAL failure classes; test with errors.Is.
var (
	// ErrWALTorn marks an incomplete tail write (truncated on recovery).
	ErrWALTorn = wal.ErrTorn
	// ErrWALCorrupt marks damaged durable data or an inconsistent log
	// directory.
	ErrWALCorrupt = wal.ErrCorrupt
)

// OpenWAL opens (or initializes) a write-ahead log for appending,
// truncating any torn or corrupt tail left by a crash.
func OpenWAL(opts WALOptions) (*WALLog, error) { return wal.Open(opts) }

// ReplayWAL reads a log read-only, invoking fn for every record at
// sequence ≥ from, and returns the durable record count. Pair it with a
// checkpoint's WALSeq to rebuild an engine's open unit, or replay from 0
// into a differently configured engine for what-if analysis.
func ReplayWAL(dir string, from int64, fn func(seq int64, rec WALRecord) error) (int64, error) {
	return wal.Replay(dir, from, fn)
}

// ParseWALSyncPolicy decodes the -wal-sync flag syntax: "batch", "off",
// "interval", or "interval=250ms".
func ParseWALSyncPolicy(s string) (WALSyncPolicy, time.Duration, error) {
	return wal.ParseSyncPolicy(s)
}

// ParseFrameLevels decodes the -tilt flag syntax shared by streamd and
// regcube replay: "calendar", "log<N>x<S>", or "name:multiple:slots,...".
func ParseFrameLevels(s string) ([]FrameLevel, error) { return tilt.ParseLevels(s) }

// WriteDatasetCSV emits a dataset in the cmd/datagen CSV format.
func WriteDatasetCSV(w io.Writer, ds *Dataset) error { return gen.WriteCSV(w, ds) }

// ReadDatasetCSV parses a dataset CSV against the given schema.
func ReadDatasetCSV(r io.Reader, schema *Schema) ([]Input, error) { return gen.ReadCSV(r, schema) }
