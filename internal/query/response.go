package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Response is the typed result of one executed Request — the closed union
// mirroring the Request kinds. Concrete types: *SummaryResponse,
// *CellsResponse (exceptions and slice), *AlertsResponse,
// *SupportersResponse, *TrendResponse, *FrameResponse,
// *ForecastResponse, *ChangesResponse.
type Response interface {
	isResponse()
}

// SummaryResponse answers a SummaryRequest: the unit header, the cube
// computation's stats, and per-cuboid exception counts (coarsest first).
type SummaryResponse struct {
	Unit      int64        `json:"unit"`
	UnitsDone int64        `json:"unitsDone"`
	Interval  IntervalJSON `json:"interval"`
	// Empty reports a unit that closed with no data; the per-cell fields
	// below are zero and Stats is omitted.
	Empty      bool                `json:"empty"`
	OCells     int                 `json:"oCells"`
	Exceptions int                 `json:"exceptions"`
	Alerts     int                 `json:"alerts"`
	Stats      *StatsJSON          `json:"stats,omitempty"`
	Cuboids    []CuboidSummaryJSON `json:"cuboids"`
}

func (*SummaryResponse) isResponse() {}

// CellsResponse answers an ExceptionsRequest or a SliceRequest: matching
// cells with the pre-truncation total.
type CellsResponse struct {
	Unit     int64        `json:"unit"`
	Interval IntervalJSON `json:"interval"`
	// Count is the total number of matching cells before K truncation.
	Count int        `json:"count"`
	Cells []CellJSON `json:"cells"`
}

func (*CellsResponse) isResponse() {}

// AlertsResponse answers an AlertsRequest: the unit's o-layer alerts in
// canonical order, each with its drill-down supporters.
type AlertsResponse struct {
	Unit     int64        `json:"unit"`
	Interval IntervalJSON `json:"interval"`
	Alerts   []AlertJSON  `json:"alerts"`
}

func (*AlertsResponse) isResponse() {}

// SupportersResponse answers a SupportersRequest: the queried cell (with
// its measure when retained) and its exception descendants, coarsest
// cuboids first.
type SupportersResponse struct {
	Unit     int64       `json:"unit"`
	Cell     CellRefJSON `json:"cell"`
	Retained bool        `json:"retained"`
	// Count is the total number of supporters before K truncation.
	Count      int        `json:"count"`
	Supporters []CellJSON `json:"supporters"`
}

func (*SupportersResponse) isResponse() {}

// TrendResponse answers a TrendRequest: the aggregated regression over
// the last K units plus the per-unit points it covers.
type TrendResponse struct {
	Unit int64    `json:"unit"`
	Cell CellJSON `json:"cell"`
	K    int      `json:"k"`
	// Level is the tilt granularity the trend was answered at; empty for
	// the finest level.
	Level string `json:"level,omitempty"`
	// History counts the retained units at the queried level.
	History int                `json:"history"`
	Points  []HistoryPointJSON `json:"points"`
}

func (*TrendResponse) isResponse() {}

// FrameResponse answers a FrameRequest: the per-level slot listing of one
// o-cell's tilt frame (§4.1, Figure 4). The default chain lists its one
// "unit" level.
type FrameResponse struct {
	Unit int64       `json:"unit"`
	Cell CellRefJSON `json:"cell"`
	// Tilted reports whether the level chain has more than one
	// granularity.
	Tilted bool `json:"tilted"`
	// Base is the engine unit the frame started at.
	Base       int64            `json:"base"`
	SlotsInUse int              `json:"slotsInUse"`
	Levels     []FrameLevelJSON `json:"levels"`
}

func (*FrameResponse) isResponse() {}

// DecodeResponse unmarshals the wire form of a response by its request
// kind — the client's half of the batch protocol.
func DecodeResponse(k Kind, raw []byte) (Response, error) {
	kind, ok := kinds[k]
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrInvalid, k)
	}
	resp := kind.response()
	if err := json.Unmarshal(raw, resp); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", k, err)
	}
	return resp, nil
}

// BatchRequest is the body of POST /v1/query: a list of typed requests
// answered together from one snapshot, so every result in a batch is
// unit-consistent with every other.
type BatchRequest struct {
	Queries []Envelope `json:"queries"`
}

// BatchResult is one request's outcome inside a BatchResponse: either OK
// with the kind's response object, or an error with the status the same
// request would have received standalone.
type BatchResult struct {
	OK     bool            `json:"ok"`
	Status int             `json:"status,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Decode returns the typed response of a successful result, or the
// result's error mapped back to the query sentinels.
func (r BatchResult) Decode(k Kind) (Response, error) {
	if !r.OK {
		return nil, StatusError(r.Status, r.Error)
	}
	return DecodeResponse(k, r.Result)
}

// BatchResponse is the body POST /v1/query returns: per-request results
// in request order, all answered from the snapshot of one unit.
type BatchResponse struct {
	Unit      int64         `json:"unit"`
	UnitsDone int64         `json:"unitsDone"`
	Results   []BatchResult `json:"results"`
}

// AppendJSON appends json.Marshal's encoding of r to dst, byte for byte,
// provided every Result holds encoding/json output as ExecuteBatch's do:
// those are written verbatim, where encoding/json would re-scan each one
// to compact and HTML-escape what already is.
func (r *BatchResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"unit":`...)
	dst = strconv.AppendInt(dst, r.Unit, 10)
	dst = append(dst, `,"unitsDone":`...)
	dst = strconv.AppendInt(dst, r.UnitsDone, 10)
	if r.Results == nil {
		return append(dst, `,"results":null}`...)
	}
	dst = append(dst, `,"results":[`...)
	for i, res := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(append(dst, `{"ok":`...), res.OK)
		if res.Status != 0 {
			dst = strconv.AppendInt(append(dst, `,"status":`...), int64(res.Status), 10)
		}
		if res.Error != "" {
			msg, _ := json.Marshal(res.Error) // a string always encodes
			dst = append(append(dst, `,"error":`...), msg...)
		}
		if len(res.Result) > 0 {
			dst = append(append(dst, `,"result":`...), res.Result...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// HTTPStatus maps an Execute or Validate error to the HTTP status the
// serving layer (and batch results) carry it as.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrInvalid), errors.Is(err, ErrCell):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// StatusError maps a transport status back to the matching sentinel, so
// client-side errors.Is checks work across the wire.
func StatusError(status int, msg string) error {
	switch status {
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrInvalid, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	default:
		return fmt.Errorf("query: status %d: %s", status, msg)
	}
}

// ErrorMessage renders an Execute error for the wire, stripping the
// ErrInvalid/ErrNotFound sentinel prefixes (the status already encodes
// them) — this keeps error bodies identical to the pre-v2 handlers'.
// ErrCell messages keep their historical "query: invalid cell" prefix.
func ErrorMessage(err error) string {
	msg := err.Error()
	for _, sentinel := range []error{ErrInvalid, ErrNotFound} {
		msg = strings.TrimPrefix(msg, sentinel.Error()+": ")
	}
	if msg == ErrUnavailable.Error() {
		return "no completed unit yet"
	}
	return msg
}
