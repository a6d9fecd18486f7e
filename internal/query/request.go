package query

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cube"
)

// The v2 query API models every analyst question as a typed, validated
// Request executed by Executor.Execute against one published snapshot.
// Transports are thin: the HTTP GET endpoints decode URL parameters into
// Requests, POST /v1/query carries a JSON batch of them, and the Go
// client (repro/client) builds them directly — all three run through the
// same dispatcher and validation.

// Sentinel errors Execute and Validate return; transports map them to
// status codes (and the client maps status codes back to them).
var (
	// ErrInvalid marks a request that can never succeed: bad limits,
	// out-of-range coordinates, unknown orders or kinds (HTTP 400).
	ErrInvalid = errors.New("query: invalid request")
	// ErrNotFound marks a well-formed request whose target the current
	// snapshot does not hold: unknown cells, over-long trends (HTTP 404).
	ErrNotFound = errors.New("query: not found")
	// ErrUnavailable is returned while no snapshot has been published yet
	// (HTTP 503).
	ErrUnavailable = errors.New("query: no completed unit yet")
)

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, args...)...)
}

func notFoundf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrNotFound}, args...)...)
}

// Kind discriminates the request union on the wire.
type Kind string

const (
	KindSummary    Kind = "summary"
	KindExceptions Kind = "exceptions"
	KindAlerts     Kind = "alerts"
	KindSupporters Kind = "supporters"
	KindSlice      Kind = "slice"
	KindTrend      Kind = "trend"
	KindFrame      Kind = "frame"
	KindForecast   Kind = "forecast"
	KindChanges    Kind = "changes"
)

// Exception orderings for ExceptionsRequest.Order.
const (
	OrderSlope = "slope" // |slope| descending (the default)
	OrderKey   = "key"   // canonical cell-key order
)

// Request is one typed query against a published snapshot. The concrete
// types — SummaryRequest, ExceptionsRequest, AlertsRequest,
// SupportersRequest, SliceRequest, TrendRequest, FrameRequest,
// ForecastRequest, ChangesRequest — form a closed union, sealed by the
// unexported run method; Executor.Execute validates a request and has it
// run itself. Pointers to them are Requests too.
type Request interface {
	// Kind returns the union discriminator.
	Kind() Kind
	// Validate checks the request against a schema without touching any
	// snapshot, so transports can reject bad requests before (or without)
	// a snapshot existing. Errors wrap ErrInvalid or ErrCell.
	Validate(s *cube.Schema) error
	// run answers the validated request from e's snapshot.
	run(e *Executor) (Response, error)
}

// CellRef names one cell by coordinates: one level and one member per
// dimension. A nil Levels defaults to the o-layer, so plain o-cell
// references only carry members. It is embedded by the cell-addressed
// requests and flattens into their JSON form.
type CellRef struct {
	Levels  []int   `json:"levels,omitempty"`
	Members []int32 `json:"members,omitempty"`
}

// OCell references an o-layer cell by its members.
func OCell(members ...int32) CellRef { return CellRef{Members: members} }

// Cell references a cell at explicit levels.
func Cell(levels []int, members []int32) CellRef {
	return CellRef{Levels: levels, Members: members}
}

// Resolve validates the reference against the schema and assembles the
// cell key, defaulting nil Levels to the o-layer.
func (c CellRef) Resolve(s *cube.Schema) (cube.CellKey, error) {
	levels := c.Levels
	if levels == nil {
		levels = make([]int, len(s.Dims))
		for d, dim := range s.Dims {
			levels[d] = dim.OLevel
		}
	}
	return MakeCellKey(s, levels, c.Members)
}

// SummaryRequest asks for the unit header, cube stats, and per-cuboid
// exception counts.
type SummaryRequest struct{}

// Kind returns KindSummary.
func (SummaryRequest) Kind() Kind { return KindSummary }

// Validate always succeeds: a summary has no parameters.
func (SummaryRequest) Validate(*cube.Schema) error { return nil }

// ExceptionsRequest asks for the ranked exception cells.
type ExceptionsRequest struct {
	// K truncates the returned cells; 0 returns every exception.
	K int `json:"k,omitempty"`
	// Order is OrderSlope (default when empty) or OrderKey.
	Order string `json:"order,omitempty"`
}

// Kind returns KindExceptions.
func (ExceptionsRequest) Kind() Kind { return KindExceptions }

// Validate rejects negative limits and unknown orderings.
func (r ExceptionsRequest) Validate(*cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means no limit)", r.K)
	}
	switch r.Order {
	case "", OrderSlope, OrderKey:
		return nil
	default:
		return invalidf("parameter order: %q is not slope or key", r.Order)
	}
}

// AlertsRequest asks for the unit's o-layer alerts with drill-down.
type AlertsRequest struct{}

// Kind returns KindAlerts.
func (AlertsRequest) Kind() Kind { return KindAlerts }

// Validate always succeeds: alerts have no parameters.
func (AlertsRequest) Validate(*cube.Schema) error { return nil }

// SupportersRequest asks for the exception descendants of one cell.
type SupportersRequest struct {
	CellRef
	// K truncates the returned supporters; 0 returns all of them.
	K int `json:"k,omitempty"`
}

// Kind returns KindSupporters.
func (SupportersRequest) Kind() Kind { return KindSupporters }

// Validate rejects negative limits and invalid cell references.
func (r SupportersRequest) Validate(s *cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means no limit)", r.K)
	}
	_, err := r.Resolve(s)
	return err
}

// SliceRequest asks for the retained exceptions under one member of one
// dimension — "all exceptions inside north-district".
type SliceRequest struct {
	// Dim indexes the slicing dimension.
	Dim int `json:"dim"`
	// Level is the hierarchy level of Member; 0 is the top level. (The
	// GET shim defaults an absent ?level= to the dimension's o-level.)
	Level int `json:"level"`
	// Member is the slicing member at Level.
	Member int32 `json:"member"`
	// K truncates the returned cells; 0 returns all of them.
	K int `json:"k,omitempty"`
}

// Kind returns KindSlice.
func (SliceRequest) Kind() Kind { return KindSlice }

// Validate rejects out-of-range dimensions, levels, and members.
func (r SliceRequest) Validate(s *cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means no limit)", r.K)
	}
	if r.Dim < 0 || r.Dim >= len(s.Dims) {
		return invalidf("parameter dim: %d outside [0,%d)", r.Dim, len(s.Dims))
	}
	d := s.Dims[r.Dim]
	if r.Level < 0 || r.Level > d.MLevel {
		return invalidf("parameter level: %d outside [0,%d]", r.Level, d.MLevel)
	}
	if card := d.Hierarchy.Cardinality(r.Level); r.Member < 0 || int(r.Member) >= card {
		return invalidf("parameter member: %d outside [0,%d) at level %d", r.Member, card, r.Level)
	}
	return nil
}

// TrendRequest asks for the k-unit trend regression of an o-cell,
// optionally at a coarser tilt granularity.
type TrendRequest struct {
	CellRef
	// K is how many trailing units to aggregate; 0 means 1.
	K int `json:"k,omitempty"`
	// Level selects the tilt granularity: 0 (default) is the finest, the
	// per-unit history; coarser levels exist on engines configured with a
	// multi-level chain.
	Level int `json:"level,omitempty"`
}

// Kind returns KindTrend.
func (TrendRequest) Kind() Kind { return KindTrend }

// Validate rejects negative counts and levels and invalid cells. Whether
// Level exists on the serving engine is snapshot-dependent and checked by
// Execute.
func (r TrendRequest) Validate(s *cube.Schema) error {
	if r.K < 0 {
		return invalidf("parameter k: %d is negative (0 means 1)", r.K)
	}
	if r.Level < 0 {
		return invalidf("parameter level: %d is negative", r.Level)
	}
	_, err := r.Resolve(s)
	return err
}

// FrameRequest asks for the per-level slot listing of an o-cell's tilt
// frame.
type FrameRequest struct {
	CellRef
}

// Kind returns KindFrame.
func (FrameRequest) Kind() Kind { return KindFrame }

// Validate rejects invalid cell references.
func (r FrameRequest) Validate(s *cube.Schema) error {
	_, err := r.Resolve(s)
	return err
}

// Envelope wraps a Request for JSON transport, adding the "kind"
// discriminator next to the request's own flattened fields:
//
//	{"kind":"trend","members":[2,0],"k":4,"level":1}
//
// BatchRequest carries a list of them.
type Envelope struct {
	Request Request
}

// MarshalJSON renders the wrapped request with its kind discriminator.
func (e Envelope) MarshalJSON() ([]byte, error) {
	if e.Request == nil {
		return nil, fmt.Errorf("%w: empty envelope", ErrInvalid)
	}
	body, err := json.Marshal(e.Request)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf(`{"kind":%q`, e.Request.Kind())
	if string(body) == "{}" {
		return []byte(head + "}"), nil
	}
	// Splice the discriminator into the request's own object form.
	return append(append([]byte(head), ','), body[1:]...), nil
}

// UnmarshalJSON decodes the kind discriminator and then the matching
// concrete request. Unknown kinds fail the whole envelope (and hence the
// batch) with ErrInvalid; on any error the envelope is left as it was.
func (e *Envelope) UnmarshalJSON(b []byte) error {
	var probe struct {
		Kind Kind `json:"kind"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return err
	}
	if probe.Kind == "" {
		return fmt.Errorf("%w: missing kind", ErrInvalid)
	}
	k, ok := kinds[probe.Kind]
	if !ok {
		return fmt.Errorf("%w: unknown kind %q", ErrInvalid, probe.Kind)
	}
	req, err := k.decode(b)
	if err != nil {
		return err
	}
	e.Request = req
	return nil
}

// kinds lists the union once: per kind, the decoder of its request's wire
// form and a new value of the response type it answers with.
var kinds = map[Kind]struct {
	decode   func([]byte) (Request, error)
	response func() Response
}{
	KindSummary:    {decodeAs[SummaryRequest], func() Response { return new(SummaryResponse) }},
	KindExceptions: {decodeAs[ExceptionsRequest], func() Response { return new(CellsResponse) }},
	KindAlerts:     {decodeAs[AlertsRequest], func() Response { return new(AlertsResponse) }},
	KindSupporters: {decodeAs[SupportersRequest], func() Response { return new(SupportersResponse) }},
	KindSlice:      {decodeAs[SliceRequest], func() Response { return new(CellsResponse) }},
	KindTrend:      {decodeAs[TrendRequest], func() Response { return new(TrendResponse) }},
	KindFrame:      {decodeAs[FrameRequest], func() Response { return new(FrameResponse) }},
	KindForecast:   {decodeAs[ForecastRequest], func() Response { return new(ForecastResponse) }},
	KindChanges:    {decodeAs[ChangesRequest], func() Response { return new(ChangesResponse) }},
}

// decodeAs decodes a request's flattened JSON form as the value type R.
func decodeAs[R Request](b []byte) (Request, error) {
	var r R
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// Wrap packages requests into envelopes — the body of a BatchRequest.
func Wrap(reqs ...Request) []Envelope {
	out := make([]Envelope, len(reqs))
	for i, r := range reqs {
		out[i] = Envelope{Request: r}
	}
	return out
}
