// Package client is the Go SDK for the regcube query API v2.
//
// A Client speaks the typed request model of internal/query to a running
// query server (streamd -listen, or any serve.Server): every analyst
// question — summaries, ranked exceptions, alerts, drill-down supporters,
// slices, multi-unit trends, tilt frames — is a typed request with a
// typed response, transported through POST /v1/query. Batch sends many
// requests in one round trip and the server answers them all from one
// snapshot, so every result in a batch is unit-consistent with every
// other; the per-query methods are one-element batches.
//
// Errors map back to the query sentinels, so callers branch with
// errors.Is: ErrInvalid (the request can never succeed), ErrNotFound
// (the current unit does not hold the target), ErrUnavailable (no unit
// has completed yet — retried automatically, see WithRetries).
//
// A Client holds one or more endpoints (WithEndpoints). Transport
// failures and 503 responses fail over to the next endpoint before any
// backoff is taken; the first endpoint that answers becomes the
// preferred one for subsequent calls. Against a cluster, point the
// client at the coordinator and the nodes, in that order.
//
//	c, err := client.New(client.WithEndpoints("http://127.0.0.1:8080"))
//	...
//	top, err := c.Exceptions(ctx, client.ExceptionsRequest{K: 10})
//	trend, err := c.Trend(ctx, client.TrendRequest{CellRef: client.OCell(2, 0), K: 4})
//	reply, err := c.Batch(ctx,
//		client.SummaryRequest{},
//		client.AlertsRequest{},
//		client.FrameRequest{CellRef: client.OCell(2, 0)},
//	)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/query"
)

// The request/response model, re-exported so SDK users need only this
// package.
type (
	// Request is the typed query union; see the concrete kinds below.
	Request = query.Request
	// Kind discriminates requests on the wire.
	Kind = query.Kind
	// CellRef names one cell by levels and members.
	CellRef = query.CellRef

	// SummaryRequest asks for the unit header and per-cuboid counts.
	SummaryRequest = query.SummaryRequest
	// ExceptionsRequest asks for ranked exception cells.
	ExceptionsRequest = query.ExceptionsRequest
	// AlertsRequest asks for the unit's o-layer alerts.
	AlertsRequest = query.AlertsRequest
	// SupportersRequest asks for a cell's exception descendants.
	SupportersRequest = query.SupportersRequest
	// SliceRequest asks for the exceptions under one member.
	SliceRequest = query.SliceRequest
	// TrendRequest asks for a k-unit trend regression of an o-cell.
	TrendRequest = query.TrendRequest
	// FrameRequest asks for an o-cell's per-level tilt frame listing.
	FrameRequest = query.FrameRequest
	// ForecastRequest asks for an o-cell's extrapolated forecast and,
	// with a threshold, its time-to-threshold.
	ForecastRequest = query.ForecastRequest
	// ChangesRequest asks for cells whose recent slope diverges from
	// their longer trend, ranked by divergence score.
	ChangesRequest = query.ChangesRequest

	// Response is the typed result union.
	Response = query.Response
	// SummaryResponse answers SummaryRequest.
	SummaryResponse = query.SummaryResponse
	// CellsResponse answers ExceptionsRequest and SliceRequest.
	CellsResponse = query.CellsResponse
	// AlertsResponse answers AlertsRequest.
	AlertsResponse = query.AlertsResponse
	// SupportersResponse answers SupportersRequest.
	SupportersResponse = query.SupportersResponse
	// TrendResponse answers TrendRequest.
	TrendResponse = query.TrendResponse
	// FrameResponse answers FrameRequest.
	FrameResponse = query.FrameResponse
	// ForecastResponse answers ForecastRequest.
	ForecastResponse = query.ForecastResponse
	// ChangesResponse answers ChangesRequest.
	ChangesResponse = query.ChangesResponse
	// ChangeJSON is one ranked cell inside a ChangesResponse.
	ChangeJSON = query.ChangeJSON

	// InfoResponse is the typed GET /v1/info document.
	InfoResponse = query.InfoResponse
	// AlertEventsResponse is the typed GET /v1/alerts/events document:
	// recent alert lifecycle events, oldest first.
	AlertEventsResponse = query.AlertEventsResponse
	// AlertEvent is one lifecycle level transition inside an
	// AlertEventsResponse.
	AlertEvent = alert.EventJSON
	// NodeStatus is one node's reachability inside a coordinator's
	// InfoResponse.
	NodeStatus = query.NodeStatus
)

// The sentinel errors responses map back to; test with errors.Is.
var (
	// ErrInvalid marks requests that can never succeed (HTTP 400).
	ErrInvalid = query.ErrInvalid
	// ErrCell marks invalid cell coordinates (HTTP 400).
	ErrCell = query.ErrCell
	// ErrNotFound marks targets the current unit does not hold (HTTP 404).
	ErrNotFound = query.ErrNotFound
	// ErrUnavailable means no unit has completed yet (HTTP 503).
	ErrUnavailable = query.ErrUnavailable
)

// OCell references an o-layer cell by its members.
func OCell(members ...int32) CellRef { return query.OCell(members...) }

// Cell references a cell at explicit levels.
func Cell(levels []int, members []int32) CellRef { return query.Cell(levels, members) }

// Client is a regcube query API client. It is safe for concurrent use.
type Client struct {
	endpoints []string
	// cur is the index of the preferred endpoint — the last one that
	// answered. Calls start there and rotate on failure.
	cur atomic.Int64
	// hc is the caller's client (WithHTTPClient), or one New builds with
	// timeout.
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithEndpoints sets the server base URLs (e.g.
// "http://127.0.0.1:8080"). With more than one, retriable failures —
// transport errors and 503 — fail over to the next endpoint; the first
// endpoint to answer is preferred for subsequent calls.
func WithEndpoints(addrs ...string) Option {
	return func(c *Client) { c.endpoints = append(c.endpoints, addrs...) }
}

// WithHTTPClient substitutes the underlying *http.Client (pools,
// transports, instrumentation). It is used as given: its Timeout wins
// over WithTimeout, and the client never writes to it.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout bounds each HTTP attempt (default 10s). Retries each get
// the full budget; bound the total with the context instead. It applies
// only when no WithHTTPClient is given.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetries sets how many extra passes over the endpoint list a
// failed call makes (default 2). Only transport errors and 503
// no-snapshot-yet responses retry — 4xx results are deterministic and
// returned immediately. With one endpoint this is the classic retry
// count; with several, each pass tries every endpoint once.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryBackoff sets the base delay between passes (default 150ms,
// doubling per pass). No delay is taken between endpoints within a
// pass — failover is immediate.
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New builds a client from options. At least one endpoint is required:
//
//	c, err := client.New(client.WithEndpoints("http://127.0.0.1:8080"))
func New(opts ...Option) (*Client, error) {
	c := &Client{
		timeout: 10 * time.Second,
		retries: 2,
		backoff: 150 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: c.timeout}
	}
	if len(c.endpoints) == 0 {
		return nil, fmt.Errorf("client: %w: no endpoints (use WithEndpoints)", ErrInvalid)
	}
	for i, ep := range c.endpoints {
		u, err := url.Parse(ep)
		if err != nil {
			return nil, fmt.Errorf("client: endpoint URL: %w", err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("client: endpoint %q: scheme must be http or https", ep)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("client: endpoint %q: missing host", ep)
		}
		c.endpoints[i] = strings.TrimRight(ep, "/")
	}
	if c.retries < 0 {
		c.retries = 0
	}
	return c, nil
}

// Endpoints returns the configured endpoint list, normalized.
func (c *Client) Endpoints() []string {
	return append([]string(nil), c.endpoints...)
}

// Result is one request's outcome inside a batch reply: exactly one of
// Response and Err is set.
type Result struct {
	Response Response
	Err      error
}

// BatchReply is the decoded outcome of one Batch round trip. Every
// result was answered from the snapshot of the same closed unit.
type BatchReply struct {
	// Unit is the closed unit all results describe.
	Unit int64
	// UnitsDone counts closed units as of the answering snapshot.
	UnitsDone int64
	// Results are in request order.
	Results []Result
}

// Batch sends the requests as one POST /v1/query round trip and decodes
// each result by its request's kind. The returned error covers the round
// trip itself (transport, malformed batch, no snapshot after retries);
// per-request failures land in the matching Result.Err.
func (c *Client) Batch(ctx context.Context, reqs ...Request) (*BatchReply, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("client: %w: empty batch", ErrInvalid)
	}
	body, err := json.Marshal(query.BatchRequest{Queries: query.Wrap(reqs...)})
	if err != nil {
		return nil, fmt.Errorf("client: encoding batch: %w", err)
	}
	data, err := c.roundTrip(ctx, http.MethodPost, "/v1/query", body)
	if err != nil {
		return nil, err
	}
	var batch query.BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		return nil, fmt.Errorf("client: decoding batch reply: %w", err)
	}
	if len(batch.Results) != len(reqs) {
		return nil, fmt.Errorf("client: batch reply has %d results for %d requests",
			len(batch.Results), len(reqs))
	}
	reply := &BatchReply{Unit: batch.Unit, UnitsDone: batch.UnitsDone, Results: make([]Result, len(reqs))}
	for i, res := range batch.Results {
		resp, err := res.Decode(reqs[i].Kind())
		reply.Results[i] = Result{Response: resp, Err: err}
	}
	return reply, nil
}

// Do executes one typed request and returns its typed response.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	reply, err := c.Batch(ctx, req)
	if err != nil {
		return nil, err
	}
	return reply.Results[0].Response, reply.Results[0].Err
}

// Summary fetches the current unit's header, stats, and cuboid rollup.
func (c *Client) Summary(ctx context.Context) (*SummaryResponse, error) {
	return doTyped[*SummaryResponse](c, ctx, SummaryRequest{})
}

// Exceptions fetches ranked exception cells.
func (c *Client) Exceptions(ctx context.Context, req ExceptionsRequest) (*CellsResponse, error) {
	return doTyped[*CellsResponse](c, ctx, req)
}

// Alerts fetches the current unit's o-layer alerts with drill-down.
func (c *Client) Alerts(ctx context.Context) (*AlertsResponse, error) {
	return doTyped[*AlertsResponse](c, ctx, AlertsRequest{})
}

// Supporters fetches a cell's exception descendants.
func (c *Client) Supporters(ctx context.Context, req SupportersRequest) (*SupportersResponse, error) {
	return doTyped[*SupportersResponse](c, ctx, req)
}

// Slice fetches the exceptions under one member of one dimension.
func (c *Client) Slice(ctx context.Context, req SliceRequest) (*CellsResponse, error) {
	return doTyped[*CellsResponse](c, ctx, req)
}

// Trend fetches a k-unit trend regression of an o-cell.
func (c *Client) Trend(ctx context.Context, req TrendRequest) (*TrendResponse, error) {
	return doTyped[*TrendResponse](c, ctx, req)
}

// Frame fetches an o-cell's per-level tilt frame listing.
func (c *Client) Frame(ctx context.Context, req FrameRequest) (*FrameResponse, error) {
	return doTyped[*FrameResponse](c, ctx, req)
}

// Forecast fetches an o-cell's trend extrapolation: the model fitted
// over its trailing history, the predicted value at the horizon, and —
// when the request carries a threshold — the time until it is reached.
func (c *Client) Forecast(ctx context.Context, req ForecastRequest) (*ForecastResponse, error) {
	return doTyped[*ForecastResponse](c, ctx, req)
}

// Changes fetches cells whose recent slope diverges from their longer
// trend, ranked by divergence score.
func (c *Client) Changes(ctx context.Context, req ChangesRequest) (*ChangesResponse, error) {
	return doTyped[*ChangesResponse](c, ctx, req)
}

// doTyped narrows Do's union result to the kind's concrete response.
func doTyped[T Response](c *Client, ctx context.Context, req Request) (T, error) {
	var zero T
	resp, err := c.Do(ctx, req)
	if err != nil {
		return zero, err
	}
	typed, ok := resp.(T)
	if !ok {
		return zero, fmt.Errorf("client: unexpected response type %T for %s", resp, req.Kind())
	}
	return typed, nil
}

// Health is the GET /healthz liveness report.
type Health struct {
	Status        string  `json:"status"`
	Serving       bool    `json:"serving"`
	Unit          int64   `json:"unit"`
	UnitsDone     int64   `json:"unitsDone"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// Health fetches the server's liveness and serving state. It succeeds
// even before the first unit closes (Serving false, Unit -1).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	data, err := c.roundTrip(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return nil, err
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("client: decoding health: %w", err)
	}
	return &h, nil
}

// AlertEvents fetches up to k recent alert lifecycle events (k <= 0 uses
// the server default of 50), oldest first. The server answers 404 when
// alerting is not configured on the node; that maps to ErrNotFound.
func (c *Client) AlertEvents(ctx context.Context, k int) (*AlertEventsResponse, error) {
	path := "/v1/alerts/events"
	if k > 0 {
		path = fmt.Sprintf("%s?k=%d", path, k)
	}
	data, err := c.roundTrip(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var resp AlertEventsResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding alert events: %w", err)
	}
	return &resp, nil
}

// Info fetches the server's GET /v1/info identity document: node id,
// role, shard count, wire and API versions, WAL watermark, and snapshot
// unit. A coordinator's document also carries per-node statuses.
func (c *Client) Info(ctx context.Context) (*InfoResponse, error) {
	data, err := c.roundTrip(ctx, http.MethodGet, "/v1/info", nil)
	if err != nil {
		return nil, err
	}
	var info InfoResponse
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("client: decoding info: %w", err)
	}
	return &info, nil
}

// roundTrip issues one HTTP request with the client's failover and
// retry policy. Attempts start at the preferred endpoint and rotate
// through the list on retriable failures (transport errors and 503, no
// delay between endpoints); after a full pass over every endpoint the
// doubling backoff applies. Everything else returns immediately, with
// non-200 statuses mapped to the query sentinels. The endpoint that
// answers becomes the preferred one.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	n := len(c.endpoints)
	start := int(c.cur.Load()) % n
	maxAttempts := (c.retries + 1) * n
	var lastErr error
	for attempt := 0; ; attempt++ {
		idx := (start + attempt) % n
		data, err, retriable := c.attempt(ctx, c.endpoints[idx], method, path, body)
		if err == nil {
			c.cur.Store(int64(idx))
			return data, nil
		}
		if !retriable || attempt+1 >= maxAttempts {
			return nil, err
		}
		lastErr = err
		if (attempt+1)%n != 0 {
			// More endpoints left in this pass — fail over immediately.
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: %w (last error: %v)", ctx.Err(), lastErr)
			}
			continue
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("client: %w (last error: %v)", ctx.Err(), lastErr)
		case <-time.After(retryDelay(c.backoff, (attempt+1)/n-1)):
		}
	}
}

// maxRetryDelay caps the doubling backoff so arbitrarily high retry
// counts wait, instead of the shift overflowing into a hot spin.
const maxRetryDelay = 30 * time.Second

// retryDelay is base·2^attempt clamped to maxRetryDelay.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay || d <= 0 {
		d = maxRetryDelay
	}
	return d
}

func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte) (data []byte, err error, retriable bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err), false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport errors (refused, reset, timeout) are worth retrying;
		// a canceled context is not.
		return nil, fmt.Errorf("client: %w", err), ctx.Err() == nil
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err), true
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil, false
	}
	serr := query.StatusError(resp.StatusCode, errorBody(data))
	return nil, serr, errors.Is(serr, ErrUnavailable)
}

// errorBody extracts the server's {"error": "..."} message, falling back
// to the raw body.
func errorBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}
