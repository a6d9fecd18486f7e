package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// TestForecastEndpoint walks the happy path of GET /v1/forecast against
// the rising flat fixture: the fit is near-perfect and a reachable
// threshold yields a positive time-to-threshold.
func TestForecastEndpoint(t *testing.T) {
	srv, _, _ := testServer(t, 2, 5)
	var f query.ForecastResponse
	get(t, srv, "/v1/forecast?members=0,0&horizon=8&threshold=200", &f)
	if f.K != 5 || f.History != 5 {
		t.Fatalf("forecast window = %d/%d, want 5/5", f.K, f.History)
	}
	if f.R2 < 0.999 {
		t.Fatalf("linear fixture R2 = %g, want ~1", f.R2)
	}
	if f.Threshold == nil || *f.Threshold != 200 {
		t.Fatalf("threshold echoed as %v", f.Threshold)
	}
	if f.TicksToThreshold == nil || *f.TicksToThreshold <= 0 {
		t.Fatalf("ticksToThreshold = %v, want positive", f.TicksToThreshold)
	}

	// Without a threshold the forecast still answers; the breach fields
	// stay empty.
	var open query.ForecastResponse
	get(t, srv, "/v1/forecast?members=0,0&horizon=8", &open)
	if open.Threshold != nil || open.TicksToThreshold != nil || open.WillBreach {
		t.Fatalf("open forecast carries breach fields: %+v", open)
	}
	if open.Predicted != f.Predicted {
		t.Fatalf("threshold changed the prediction: %g vs %g", open.Predicted, f.Predicted)
	}
}

// TestForecastDefaults: SetForecastDefaults supplies the GET fallbacks,
// and without them ?horizon= is mandatory.
func TestForecastDefaults(t *testing.T) {
	srv, _, _ := testServer(t, 2, 5)
	// No defaults configured: an absent horizon falls back to 0, which
	// request validation rejects.
	rec := get(t, srv, "/v1/forecast?members=0,0", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("forecast without horizon: status %d, want 400", rec.Code)
	}

	th := 200.0
	srv.SetForecastDefaults(ForecastDefaults{Horizon: 8, Threshold: &th, ChangeScore: 0.25})
	var f, explicit query.ForecastResponse
	get(t, srv, "/v1/forecast?members=0,0", &f)
	if f.Horizon != 8 || f.Threshold == nil || *f.Threshold != 200 {
		t.Fatalf("defaulted forecast = %+v, want horizon 8 threshold 200", f)
	}
	// Explicit parameters override the defaults.
	get(t, srv, "/v1/forecast?members=0,0&horizon=3&threshold=999", &explicit)
	if explicit.Horizon != 3 || explicit.Threshold == nil || *explicit.Threshold != 999 {
		t.Fatalf("explicit forecast = %+v", explicit)
	}

	var c query.ChangesResponse
	get(t, srv, "/v1/changes", &c)
	if c.MinScore != 0.25 {
		t.Fatalf("defaulted changes minScore = %g, want 0.25", c.MinScore)
	}
}

// TestChangesEndpoint: tilted engines rank diverging cells, flat engines
// answer a structurally empty scan.
func TestChangesEndpoint(t *testing.T) {
	srv, _, _ := tiltServer(t, 3, 13)
	var all, top query.ChangesResponse
	get(t, srv, "/v1/changes", &all)
	if !all.Tilted || all.Count != 4 || len(all.Cells) != 4 {
		t.Fatalf("tilted changes = %+v, want 4 scored cells", all)
	}
	for i := 1; i < len(all.Cells); i++ {
		if all.Cells[i].Score > all.Cells[i-1].Score {
			t.Fatalf("cells not score-descending at %d", i)
		}
	}
	get(t, srv, "/v1/changes?k=2", &top)
	if top.Count != 4 || len(top.Cells) != 2 {
		t.Fatalf("k=2 changes kept %d of count %d", len(top.Cells), top.Count)
	}

	flat, _, _ := testServer(t, 2, 3)
	var none query.ChangesResponse
	get(t, flat, "/v1/changes", &none)
	if none.Tilted || none.Count != 0 || len(none.Cells) != 0 {
		t.Fatalf("flat changes = %+v, want empty scan", none)
	}

	// A calendar-chain engine whose first unit closed empty holds no frame
	// yet; its chain has more than one level all the same.
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5),
		TiltLevels: tilt.CalendarLevels(), PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if _, err := eng.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	var quiet query.ChangesResponse
	get(t, New(eng, schema), "/v1/changes", &quiet)
	if !quiet.Tilted || quiet.Count != 0 || len(quiet.Cells) != 0 {
		t.Fatalf("calendar changes before any frame = %+v, want a tilted empty scan", quiet)
	}
}

// TestForecastValidationHTTP is the table of 400s the new endpoints must
// produce before any snapshot work: limit and horizon minimums, malformed
// floats, out-of-range scores, and unknown cells.
func TestForecastValidationHTTP(t *testing.T) {
	srv, _, _ := testServer(t, 2, 3)
	for _, path := range []string{
		"/v1/forecast?members=0,0",            // horizon mandatory without defaults
		"/v1/forecast?members=0,0&horizon=0",  // explicit below minimum 1
		"/v1/forecast?members=0,0&horizon=-5", // negative
		"/v1/forecast?members=0,0&horizon=x",  // non-integer
		"/v1/forecast?members=0,0&horizon=5&k=0",
		"/v1/forecast?members=0,0&horizon=5&k=-1",
		"/v1/forecast?members=0,0&horizon=5&threshold=abc",
		"/v1/forecast?horizon=5",             // members missing
		"/v1/forecast?members=9,9&horizon=5", // unknown cell (ErrCell)
		"/v1/forecast?members=0&horizon=5",   // wrong arity
		"/v1/changes?k=0",
		"/v1/changes?k=-2",
		"/v1/changes?score=1.5",
		"/v1/changes?score=-0.1",
		"/v1/changes?score=lots",
	} {
		rec := get(t, srv, path, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%s)", path, rec.Code, rec.Body.String())
			continue
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("GET %s: non-JSON error body %s", path, rec.Body.String())
		}
	}
	// A known cell with no recorded history yet: 404, not 400.
	rec := get(t, srv, "/v1/forecast?members=0,0&horizon=5&k=99", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("over-long window: status %d, want 404", rec.Code)
	}
}

// TestForecastMethodNotAllowed pins the 405+Allow contract of the new
// routes.
func TestForecastMethodNotAllowed(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	for _, path := range []string{"/v1/forecast", "/v1/changes"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s: Allow = %q, want GET", path, allow)
		}
	}
}

// TestForecastDeterministicAcrossShards is the serving-layer half of the
// determinism property: the exact response bytes of /v1/forecast and
// /v1/changes must not depend on the shard count, flat and tilted alike.
func TestForecastDeterministicAcrossShards(t *testing.T) {
	paths := []string{
		"/v1/forecast?members=0,0&horizon=8&threshold=300",
		"/v1/forecast?members=1,1&k=3&horizon=20",
		"/v1/changes",
		"/v1/changes?k=2&score=0.01",
	}
	for _, tilted := range []bool{false, true} {
		var want map[string]string
		for _, shards := range []int{1, 4, 7} {
			var srv *Server
			if tilted {
				srv, _, _ = tiltServer(t, shards, 13)
			} else {
				srv, _, _ = testServer(t, shards, 5)
			}
			got := map[string]string{}
			for _, p := range paths {
				rec := get(t, srv, p, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("tilted=%v shards=%d GET %s: status %d: %s", tilted, shards, p, rec.Code, rec.Body.String())
				}
				got[p] = rec.Body.String()
			}
			if want == nil {
				want = got
				continue
			}
			for _, p := range paths {
				if got[p] != want[p] {
					t.Errorf("tilted=%v GET %s differs at %d shards:\n got: %s\nwant: %s",
						tilted, p, shards, got[p], want[p])
				}
			}
		}
	}
}

// TestForecastMetricsCounters asserts the new endpoints are instrumented
// under their own names.
func TestForecastMetricsCounters(t *testing.T) {
	srv, _, _ := tiltServer(t, 2, 7)
	get(t, srv, "/v1/forecast?members=0,0&horizon=8", &query.ForecastResponse{})
	get(t, srv, "/v1/changes", &query.ChangesResponse{})
	rec := get(t, srv, "/metrics", nil)
	body := rec.Body.String()
	for _, want := range []string{
		`regcube_http_requests_total{endpoint="forecast"} 1`,
		`regcube_http_requests_total{endpoint="changes"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
