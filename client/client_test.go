package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// testSchema is D2, fanout 2, m-level 2, o-level 1 — the serve fixture.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	ha, err := cube.NewFanoutHierarchy("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := cube.NewFanoutHierarchy("B", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// testServer runs a real HTTP query server over an engine with `units`
// closed units (tilted when tiltLevels is set) and returns a client for
// it.
func testServer(t testing.TB, units int, tiltLevels []tilt.Level) (*client.Client, *httptest.Server) {
	t.Helper()
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		TiltLevels:       tiltLevels,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < int64(4*units); tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, float64(tick)*float64(a+2*b+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := eng.Ingest([]int32{0, 0}, int64(4*units), 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(eng, schema))
	t.Cleanup(ts.Close)
	c, err := client.New(client.WithEndpoints(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

// getJSON decodes a GET endpoint's body into out.
func getJSON(t testing.TB, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v: %s", path, err, body)
	}
}

// TestClientMatchesGET is the round-trip equivalence suite: every typed
// client method must return exactly what the matching GET endpoint
// serves for the same parameters — same dispatcher, same snapshot, same
// wire types.
func TestClientMatchesGET(t *testing.T) {
	c, ts := testServer(t, 3, nil)
	ctx := context.Background()

	var wantSummary client.SummaryResponse
	getJSON(t, ts, "/v1/summary", &wantSummary)
	gotSummary, err := c.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSummary, &wantSummary) {
		t.Errorf("Summary = %+v\nwant %+v", gotSummary, &wantSummary)
	}

	var wantExc client.CellsResponse
	getJSON(t, ts, "/v1/exceptions?k=5", &wantExc)
	gotExc, err := c.Exceptions(ctx, client.ExceptionsRequest{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotExc, &wantExc) {
		t.Errorf("Exceptions = %+v\nwant %+v", gotExc, &wantExc)
	}

	var wantAlerts client.AlertsResponse
	getJSON(t, ts, "/v1/alerts", &wantAlerts)
	gotAlerts, err := c.Alerts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAlerts, &wantAlerts) {
		t.Errorf("Alerts = %+v\nwant %+v", gotAlerts, &wantAlerts)
	}

	var wantSup client.SupportersResponse
	getJSON(t, ts, "/v1/supporters?members=1,1", &wantSup)
	gotSup, err := c.Supporters(ctx, client.SupportersRequest{CellRef: client.OCell(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSup, &wantSup) {
		t.Errorf("Supporters = %+v\nwant %+v", gotSup, &wantSup)
	}

	var wantSlice client.CellsResponse
	getJSON(t, ts, "/v1/slice?dim=0&level=1&member=1&k=3", &wantSlice)
	gotSlice, err := c.Slice(ctx, client.SliceRequest{Dim: 0, Level: 1, Member: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSlice, &wantSlice) {
		t.Errorf("Slice = %+v\nwant %+v", gotSlice, &wantSlice)
	}

	var wantTrend client.TrendResponse
	getJSON(t, ts, "/v1/trend?members=0,0&k=3", &wantTrend)
	gotTrend, err := c.Trend(ctx, client.TrendRequest{CellRef: client.OCell(0, 0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTrend, &wantTrend) {
		t.Errorf("Trend = %+v\nwant %+v", gotTrend, &wantTrend)
	}

	var wantFrame client.FrameResponse
	getJSON(t, ts, "/v1/frame?members=0,0", &wantFrame)
	gotFrame, err := c.Frame(ctx, client.FrameRequest{CellRef: client.OCell(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFrame, &wantFrame) {
		t.Errorf("Frame = %+v\nwant %+v", gotFrame, &wantFrame)
	}

	var wantFc client.ForecastResponse
	getJSON(t, ts, "/v1/forecast?members=0,0&horizon=8&threshold=500", &wantFc)
	th := 500.0
	gotFc, err := c.Forecast(ctx, client.ForecastRequest{CellRef: client.OCell(0, 0), Horizon: 8, Threshold: &th})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFc, &wantFc) {
		t.Errorf("Forecast = %+v\nwant %+v", gotFc, &wantFc)
	}

	var wantCh client.ChangesResponse
	getJSON(t, ts, "/v1/changes?k=3", &wantCh)
	gotCh, err := c.Changes(ctx, client.ChangesRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCh, &wantCh) {
		t.Errorf("Changes = %+v\nwant %+v", gotCh, &wantCh)
	}
}

// TestClientMatchesGETTilted runs the equivalence suite's tilt-specific
// paths: level trends and the multi-level frame.
func TestClientMatchesGETTilted(t *testing.T) {
	levels := []tilt.Level{
		{Name: "quarter", Multiple: 1, Slots: 3},
		{Name: "hour", Multiple: 3, Slots: 4},
	}
	c, ts := testServer(t, 13, levels)
	ctx := context.Background()

	var wantTrend client.TrendResponse
	getJSON(t, ts, "/v1/trend?members=1,1&k=2&level=1", &wantTrend)
	gotTrend, err := c.Trend(ctx, client.TrendRequest{CellRef: client.OCell(1, 1), K: 2, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTrend, &wantTrend) || gotTrend.Level != "hour" {
		t.Errorf("tilted Trend = %+v\nwant %+v", gotTrend, &wantTrend)
	}

	var wantFrame client.FrameResponse
	getJSON(t, ts, "/v1/frame?members=1,0", &wantFrame)
	gotFrame, err := c.Frame(ctx, client.FrameRequest{CellRef: client.OCell(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFrame, &wantFrame) || !gotFrame.Tilted {
		t.Errorf("tilted Frame = %+v\nwant %+v", gotFrame, &wantFrame)
	}

	var wantCh client.ChangesResponse
	getJSON(t, ts, "/v1/changes?k=2", &wantCh)
	gotCh, err := c.Changes(ctx, client.ChangesRequest{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCh, &wantCh) || !gotCh.Tilted {
		t.Errorf("tilted Changes = %+v\nwant %+v", gotCh, &wantCh)
	}
}

// TestClientBatchMixed sends one batch with valid and failing
// sub-requests: results decode in order, errors map to the sentinels,
// and every success reports the same unit.
func TestClientBatchMixed(t *testing.T) {
	c, _ := testServer(t, 3, nil)
	reply, err := c.Batch(context.Background(),
		client.SummaryRequest{},
		client.ExceptionsRequest{K: 2},
		client.SupportersRequest{CellRef: client.OCell(9, 9)},   // invalid member
		client.TrendRequest{CellRef: client.OCell(0, 0), K: 99}, // not recorded
		client.SliceRequest{Dim: 0, Level: 1, Member: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != 5 {
		t.Fatalf("reply has %d results, want 5", len(reply.Results))
	}
	sum, ok := reply.Results[0].Response.(*client.SummaryResponse)
	if !ok || reply.Results[0].Err != nil {
		t.Fatalf("summary result = %+v / %v", reply.Results[0].Response, reply.Results[0].Err)
	}
	if sum.Unit != reply.Unit {
		t.Fatalf("summary unit %d != batch unit %d", sum.Unit, reply.Unit)
	}
	if exc := reply.Results[1].Response.(*client.CellsResponse); len(exc.Cells) != 2 || exc.Unit != reply.Unit {
		t.Fatalf("exceptions result = %+v", exc)
	}
	if err := reply.Results[2].Err; !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("invalid sub-request err = %v, want ErrInvalid", err)
	}
	if err := reply.Results[3].Err; !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("not-found sub-request err = %v, want ErrNotFound", err)
	}
	if sl := reply.Results[4].Response.(*client.CellsResponse); sl.Unit != reply.Unit {
		t.Fatalf("slice unit %d != batch unit %d", sl.Unit, reply.Unit)
	}

	if _, err := c.Batch(context.Background()); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("empty batch err = %v, want ErrInvalid", err)
	}
}

// TestClientErrorMapping covers the standalone-method error paths.
func TestClientErrorMapping(t *testing.T) {
	c, _ := testServer(t, 2, nil)
	ctx := context.Background()
	if _, err := c.Exceptions(ctx, client.ExceptionsRequest{Order: "bogus"}); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("bad order err = %v, want ErrInvalid", err)
	}
	if _, err := c.Trend(ctx, client.TrendRequest{CellRef: client.OCell(0, 0), K: 99}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("over-long trend err = %v, want ErrNotFound", err)
	}
	// Coarse levels on a flat engine are invalid, not missing.
	if _, err := c.Trend(ctx, client.TrendRequest{CellRef: client.OCell(0, 0), K: 1, Level: 1}); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("flat-engine level err = %v, want ErrInvalid", err)
	}
}

// TestClientHealth covers /healthz on cold and warm servers.
func TestClientHealth(t *testing.T) {
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5), PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(eng, schema))
	defer ts.Close()
	c, err := client.New(client.WithEndpoints(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Serving || h.Unit != -1 || h.Status != "ok" {
		t.Fatalf("cold health = %+v", h)
	}
	// A typed query against the cold server exhausts its 503 retries.
	fast, err := client.New(client.WithEndpoints(ts.URL), client.WithRetries(1), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Summary(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("cold summary err = %v, want ErrUnavailable", err)
	}

	warm, tsWarm := testServer(t, 2, nil)
	h, err = warm.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Serving || h.Unit != 1 || h.UnitsDone != 2 {
		t.Fatalf("warm health = %+v", h)
	}
	_ = tsWarm
}

// TestClientRetriesUnavailable fronts the real server with a proxy that
// 503s the first attempts: the client's retry policy must ride through
// and succeed without caller involvement.
func TestClientRetriesUnavailable(t *testing.T) {
	_, real := testServer(t, 2, nil)
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"no completed unit yet"}`))
			return
		}
		resp, err := http.Post(real.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer flaky.Close()

	c, err := client.New(client.WithEndpoints(flaky.URL), client.WithRetries(3), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary(context.Background())
	if err != nil {
		t.Fatalf("retried summary: %v", err)
	}
	if sum.Unit != 1 {
		t.Fatalf("summary unit = %d, want 1", sum.Unit)
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}

	// With retries off the first 503 surfaces immediately.
	n.Store(0)
	zero, err := client.New(client.WithEndpoints(flaky.URL), client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zero.Summary(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("no-retry err = %v, want ErrUnavailable", err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// TestClientNew pins endpoint validation.
func TestClientNew(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:8080", "ftp://x", "http://"} {
		if _, err := client.New(client.WithEndpoints(bad)); err == nil {
			t.Errorf("New(WithEndpoints(%q)) succeeded, want error", bad)
		}
	}
	if _, err := client.New(); err == nil {
		t.Error("New with no endpoints succeeded, want error")
	}
	c, err := client.New(client.WithEndpoints("http://127.0.0.1:8080/", "http://127.0.0.1:8081"))
	if err != nil {
		t.Fatalf("New with trailing slash: %v", err)
	}
	if got := c.Endpoints(); len(got) != 2 || got[0] != "http://127.0.0.1:8080" {
		t.Fatalf("Endpoints() = %v", got)
	}
}

// TestClientTimeout pins who owns the attempt timeout: WithTimeout bounds
// the client New builds, and a caller's WithHTTPClient is used as given
// and never written, whichever option comes first.
func TestClientTimeout(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(200 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","serving":true}`))
	}))
	defer slow.Close()

	c, err := client.New(client.WithEndpoints(slow.URL), client.WithRetries(0), client.WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("a 200 ms answer beat the default client's 50 ms timeout")
	}

	for _, order := range []string{"client first", "timeout first"} {
		shared := &http.Client{Timeout: 7 * time.Second}
		opts := []client.Option{client.WithHTTPClient(shared), client.WithTimeout(50 * time.Millisecond)}
		if order == "timeout first" {
			opts[0], opts[1] = opts[1], opts[0]
		}
		c, err := client.New(append(opts, client.WithEndpoints(slow.URL), client.WithRetries(0))...)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Timeout != 7*time.Second {
			t.Fatalf("%s: the caller's client timeout became %v", order, shared.Timeout)
		}
		if h, err := c.Health(context.Background()); err != nil || !h.Serving {
			t.Fatalf("%s: the caller's 7 s client did not answer: %+v, %v", order, h, err)
		}
	}
}

// TestClientFailover pins the multi-endpoint contract: a down first
// endpoint (refused connections and 503s alike) fails over to the next
// one within a single pass — even with retries off — and the endpoint
// that answered becomes the preferred one for subsequent calls.
func TestClientFailover(t *testing.T) {
	_, real := testServer(t, 2, nil)
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"no completed unit yet"}`))
	}))
	defer dead.Close()

	// Retries 0 = one pass over the list; a 503 from the first endpoint
	// must still reach the second.
	c, err := client.New(client.WithEndpoints(dead.URL, real.URL),
		client.WithRetries(0), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary(context.Background())
	if err != nil {
		t.Fatalf("failover summary: %v", err)
	}
	if sum.Unit != 1 {
		t.Fatalf("summary unit = %d, want 1", sum.Unit)
	}
	if got := deadHits.Load(); got != 1 {
		t.Fatalf("dead endpoint saw %d attempts, want 1", got)
	}
	// Stickiness: the next call starts at the endpoint that answered.
	if _, err := c.Summary(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := deadHits.Load(); got != 1 {
		t.Fatalf("dead endpoint saw %d attempts after stickiness, want 1", got)
	}

	// A refused connection (closed server) fails over the same way.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	gone.Close()
	c2, err := client.New(client.WithEndpoints(gone.URL, real.URL), client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Summary(context.Background()); err != nil {
		t.Fatalf("failover from refused connection: %v", err)
	}

	// Deterministic errors do not fail over: a 400 from the preferred
	// endpoint surfaces immediately.
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"bad request"}`))
	}))
	defer bad.Close()
	c3, err := client.New(client.WithEndpoints(bad.URL, real.URL), client.WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Summary(context.Background()); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("400 err = %v, want ErrInvalid", err)
	}
	if got := badHits.Load(); got != 1 {
		t.Fatalf("bad endpoint saw %d attempts, want 1", got)
	}

	// All endpoints down: the last error surfaces after every endpoint
	// was tried on every pass.
	deadHits.Store(0)
	c4, err := client.New(client.WithEndpoints(dead.URL, dead.URL),
		client.WithRetries(1), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Summary(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("all-down err = %v, want ErrUnavailable", err)
	}
	if got := deadHits.Load(); got != 4 {
		t.Fatalf("dead endpoint saw %d attempts, want 4 (2 endpoints x 2 passes)", got)
	}
}
