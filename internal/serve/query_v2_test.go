package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
)

// postBatch issues POST /v1/query with the given body and returns the
// recorder.
func postBatch(srv *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rec, req)
	return rec
}

// TestBatchQuery runs a mixed batch — several valid kinds plus invalid
// and not-found sub-requests — and asserts per-result statuses, order,
// and unit consistency with the GET surface.
func TestBatchQuery(t *testing.T) {
	srv, _, _ := testServer(t, 4, 3)
	body, err := json.Marshal(query.BatchRequest{Queries: query.Wrap(
		query.SummaryRequest{},
		query.ExceptionsRequest{K: 3},
		query.AlertsRequest{},
		query.SupportersRequest{CellRef: query.OCell(1, 1)},
		query.SliceRequest{Dim: 0, Level: 1, Member: 0},
		query.TrendRequest{CellRef: query.OCell(0, 0), K: 3},
		query.FrameRequest{CellRef: query.OCell(0, 0)},
		query.SupportersRequest{CellRef: query.OCell(9, 9)},   // 400
		query.TrendRequest{CellRef: query.OCell(0, 0), K: 99}, // 404
	)})
	if err != nil {
		t.Fatal(err)
	}
	rec := postBatch(srv, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/query: status %d: %s", rec.Code, rec.Body.String())
	}
	var batch query.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatalf("bad batch JSON: %v", err)
	}
	if len(batch.Results) != 9 {
		t.Fatalf("batch returned %d results, want 9", len(batch.Results))
	}
	for i := 0; i < 7; i++ {
		if !batch.Results[i].OK {
			t.Fatalf("result %d failed: %s", i, batch.Results[i].Error)
		}
	}
	if st := batch.Results[7].Status; st != http.StatusBadRequest {
		t.Fatalf("invalid sub-request status %d, want 400", st)
	}
	if st := batch.Results[8].Status; st != http.StatusNotFound {
		t.Fatalf("not-found sub-request status %d, want 404", st)
	}

	// Batch results must equal the GET endpoints' bodies for the same
	// queries: both run the same dispatcher against the same snapshot.
	var viaGET query.CellsResponse
	get(t, srv, "/v1/exceptions?k=3", &viaGET)
	exc, err := batch.Results[1].Decode(query.KindExceptions)
	if err != nil {
		t.Fatal(err)
	}
	viaBatch := exc.(*query.CellsResponse)
	if batch.Unit != viaGET.Unit || len(viaBatch.Cells) != len(viaGET.Cells) {
		t.Fatalf("batch unit %d/%d cells vs GET unit %d/%d cells",
			batch.Unit, len(viaBatch.Cells), viaGET.Unit, len(viaGET.Cells))
	}
	for i := range viaBatch.Cells {
		if !reflect.DeepEqual(viaBatch.Cells[i], viaGET.Cells[i]) {
			t.Fatalf("cell %d differs: %+v vs %+v", i, viaBatch.Cells[i], viaGET.Cells[i])
		}
	}

	// The body is what a json.Encoder writes for the executor's batch: the
	// envelope written around the encoded results changes no byte.
	var req query.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ex, err := srv.executor()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := json.NewEncoder(&want).Encode(ex.ExecuteBatch(req.Queries)); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("POST /v1/query body:\n%s\nencoder:\n%s", rec.Body.String(), want.String())
	}
}

// TestBatchQueryErrors pins the whole-batch failure modes: bad bodies,
// unknown kinds, empty and oversized batches, wrong method, no snapshot.
func TestBatchQueryErrors(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)

	for body, want := range map[string]int{
		`not json`:                         http.StatusBadRequest,
		`{"queries":[]}`:                   http.StatusBadRequest,
		`{}`:                               http.StatusBadRequest,
		`{"queries":[{"kind":"nope"}]}`:    http.StatusBadRequest,
		`{"queries":[{"k":1}]}`:            http.StatusBadRequest, // missing kind
		`{"queries":[{"kind":"summary"}]}`: http.StatusOK,
	} {
		rec := postBatch(srv, body)
		if rec.Code != want {
			t.Errorf("POST %s: status %d, want %d (%s)", body, rec.Code, want, rec.Body.String())
		}
		if want != http.StatusOK && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("POST %s: non-JSON error body %s", body, rec.Body.String())
		}
	}

	// A batch above the sub-request limit is rejected as a whole.
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"kind":"summary"}`)
	}
	sb.WriteString(`]}`)
	if rec := postBatch(srv, sb.String()); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "exceeds limit") {
		t.Errorf("oversized batch: status %d body %s", rec.Code, rec.Body.String())
	}

	// A body above the byte limit is 413.
	huge := `{"queries":[{"kind":"summary","pad":"` + strings.Repeat("x", maxQueryBodyBytes) + `"}]}`
	if rec := postBatch(srv, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}

	// Before the first snapshot the whole batch is 503, like the GETs.
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5), PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := New(eng, schema)
	if rec := postBatch(cold, `{"queries":[{"kind":"summary"}]}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cold batch: status %d, want 503", rec.Code)
	}
}

// TestMethodNotAllowed sweeps every route with mismatched methods: each
// answers 405 and names the allowed method in the Allow header, so
// clients can self-correct.
func TestMethodNotAllowed(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	getOnly := []string{
		"/healthz", "/metrics", "/v1/summary", "/v1/exceptions", "/v1/alerts",
		"/v1/supporters", "/v1/slice", "/v1/trend", "/v1/frame",
	}
	for _, path := range getOnly {
		for _, method := range []string{"POST", "PUT", "DELETE", "PATCH"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, rec.Code)
				continue
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("%s %s: Allow=%q, want GET listed", method, path, allow)
			}
		}
	}
	for _, method := range []string{"GET", "PUT", "DELETE"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/v1/query", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /v1/query: status %d, want 405", method, rec.Code)
			continue
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "POST") {
			t.Errorf("%s /v1/query: Allow=%q, want POST listed", method, allow)
		}
	}
}

// brokenWriter fails every body write, simulating a client that vanished
// mid-response.
type brokenWriter struct {
	header http.Header
	status int
}

func (w *brokenWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *brokenWriter) WriteHeader(status int)    { w.status = status }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestEncodeErrorsCounted asserts a response body that fails mid-write
// lands in both the endpoint error counter and the dedicated encode
// gauge — previously writeJSON dropped these errors silently.
func TestEncodeErrorsCounted(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	srv.ServeHTTP(&brokenWriter{}, httptest.NewRequest("GET", "/v1/summary", nil))
	rec := get(t, srv, "/metrics", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "regcube_http_encode_errors_total 1") {
		t.Fatalf("metrics missing encode error gauge:\n%s", body)
	}
	want := fmt.Sprintf("regcube_http_errors_total{endpoint=%q} 1", "summary")
	if !strings.Contains(body, want) {
		t.Fatalf("metrics missing %s:\n%s", want, body)
	}
}

// TestBatchMetricsCounter asserts the batch endpoint is instrumented
// alongside the GET shims.
func TestBatchMetricsCounter(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	if rec := postBatch(srv, `{"queries":[{"kind":"summary"},{"kind":"alerts"}]}`); rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d", rec.Code)
	}
	rec := get(t, srv, "/metrics", nil)
	want := fmt.Sprintf("regcube_http_requests_total{endpoint=%q} 1", "query")
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %s:\n%s", want, rec.Body.String())
	}
}
