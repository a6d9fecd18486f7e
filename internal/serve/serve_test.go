package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wire"
)

// testSchema is D2, fanout 2, m-level 2 (4×4 m-cells), o-level 1 (2×2
// o-cells) — small enough to reason about, sharded-friendly.
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

// testServer ingests `units` full units into a sharded engine and returns
// a Server over it. Values rise with the tick, so slopes are positive and
// alerts fire at threshold 0.5.
func testServer(t testing.TB, shards, units int) (*Server, *stream.Engine, *cube.Schema) {
	t.Helper()
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		Shards:           shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for tick := int64(0); tick < int64(4*units); tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				v := float64(tick) * float64(a+2*b+1)
				if _, err := eng.Ingest([]int32{a, b}, tick, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Cross into the next unit so `units` boundaries have published.
	if _, err := eng.Ingest([]int32{0, 0}, int64(4*units), 0); err != nil {
		t.Fatal(err)
	}
	return New(eng, schema), eng, schema
}

func get(t testing.TB, srv *Server, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if out != nil {
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON %v: %s", path, err, rec.Body.String())
		}
	}
	return rec
}

func TestHealthzAndSummary(t *testing.T) {
	srv, _, _ := testServer(t, 4, 3)
	var h healthResponse
	get(t, srv, "/healthz", &h)
	if !h.Serving || h.Unit != 2 || h.UnitsDone != 3 {
		t.Fatalf("health = %+v, want serving unit 2 with 3 done", h)
	}
	var sum query.SummaryResponse
	get(t, srv, "/v1/summary", &sum)
	if sum.Unit != 2 || sum.Empty || sum.OCells != 4 {
		t.Fatalf("summary = %+v, want unit 2, 4 o-cells", sum)
	}
	if sum.Stats == nil || sum.Stats.Algorithm == "" || sum.Stats.Tuples != 16 {
		t.Fatalf("summary stats = %+v, want 16 tuples", sum.Stats)
	}
	// 3×3 cuboids between the critical layers of D2L2.
	if len(sum.Cuboids) == 0 {
		t.Fatalf("summary lists no cuboids")
	}
}

func TestExceptionsRankedAndKeyed(t *testing.T) {
	srv, _, _ := testServer(t, 4, 2)
	var bySlope, byKey query.CellsResponse
	// A limit at or past the full set returns every cell (negative
	// sentinels are rejected with 400 since the lower-bound fix).
	get(t, srv, "/v1/exceptions?k=1000000&order=slope", &bySlope)
	get(t, srv, "/v1/exceptions?k=1000000&order=key", &byKey)
	if bySlope.Count == 0 || bySlope.Count != byKey.Count {
		t.Fatalf("counts differ: slope %d vs key %d", bySlope.Count, byKey.Count)
	}
	if len(bySlope.Cells) != bySlope.Count || len(byKey.Cells) != byKey.Count {
		t.Fatalf("large k must return all cells")
	}
	// Same set, different order.
	set := func(cs []query.CellJSON) map[string]bool {
		m := make(map[string]bool)
		for _, c := range cs {
			m[fmt.Sprint(c.Levels, c.Members)] = true
		}
		return m
	}
	a, b := set(bySlope.Cells), set(byKey.Cells)
	if len(a) != len(b) {
		t.Fatalf("cell sets differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("cell %s missing from key order", k)
		}
	}
	// Ranked order is by |slope| descending.
	for i := 1; i < len(bySlope.Cells); i++ {
		if abs(bySlope.Cells[i].ISB.Slope) > abs(bySlope.Cells[i-1].ISB.Slope)+1e-12 {
			t.Fatalf("slope order violated at %d", i)
		}
	}
	var top query.CellsResponse
	get(t, srv, "/v1/exceptions?k=3", &top)
	if len(top.Cells) != 3 || top.Count != bySlope.Count {
		t.Fatalf("k=3 returned %d cells, count %d", len(top.Cells), top.Count)
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestAlertsSupportersSliceTrend(t *testing.T) {
	srv, eng, _ := testServer(t, 4, 3)
	var al query.AlertsResponse
	get(t, srv, "/v1/alerts", &al)
	if len(al.Alerts) == 0 {
		t.Fatal("rising values at threshold 0.5 must alert")
	}
	for _, a := range al.Alerts {
		if a.Unit != al.Unit {
			t.Fatalf("alert unit %d outside snapshot unit %d", a.Unit, al.Unit)
		}
	}

	// Supporters of the steepest alerted o-cell: its supporters must be
	// descendants with the alert's cell as ancestor.
	first := al.Alerts[0]
	var sup query.SupportersResponse
	get(t, srv, fmt.Sprintf("/v1/supporters?levels=%s&members=%s",
		joinInts(first.Cell.Levels), joinInt32s(first.Cell.Members)), &sup)
	if !sup.Retained || sup.Cell.ISB == nil {
		t.Fatalf("alerted o-cell must be retained: %+v", sup)
	}

	var sl query.CellsResponse
	get(t, srv, "/v1/slice?dim=0&level=1&member=0", &sl)
	for _, c := range sl.Cells {
		// Every sliced cell's dim-0 member must roll up to member 0.
		if c.Levels[0] == 1 && c.Members[0] != 0 {
			t.Fatalf("slice returned foreign cell %+v", c)
		}
	}

	var tr query.TrendResponse
	get(t, srv, "/v1/trend?members=0,0&k=3", &tr)
	if tr.K != 3 || len(tr.Points) != 3 || tr.History != 3 {
		t.Fatalf("trend = %+v, want 3 points", tr)
	}
	// The trend regression must match the engine's own TrendQuery.
	oCell := cube.NewCellKey(cube.MustCuboid(1, 1), 0, 0)
	want, err := eng.TrendQuery(oCell, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cell.ISB.Slope != want.Slope || tr.Cell.ISB.Base != want.Base {
		t.Fatalf("trend ISB %+v differs from engine %+v", tr.Cell.ISB, want)
	}
}

func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func joinInt32s(vs []int32) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestErrorsAndUnavailable(t *testing.T) {
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, schema)

	// Before any unit closes every /v1 endpoint is 503 with a JSON error.
	rec := get(t, srv, "/v1/exceptions", nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("pre-snapshot status = %d body %q", rec.Code, rec.Body.String())
	}
	// Health stays 200 while not yet serving.
	var h healthResponse
	get(t, srv, "/healthz", &h)
	if h.Serving || h.Unit != -1 {
		t.Fatalf("health before first unit = %+v", h)
	}

	if _, err := eng.Ingest([]int32{0, 0}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	for path, want := range map[string]int{
		"/v1/exceptions?k=x":                    http.StatusBadRequest,
		"/v1/exceptions?order=bogus":            http.StatusBadRequest,
		"/v1/supporters?members=9,9":            http.StatusBadRequest, // outside o-level cardinality
		"/v1/supporters?members=0":              http.StatusBadRequest, // wrong arity
		"/v1/supporters":                        http.StatusBadRequest, // members missing
		"/v1/slice?dim=5&member=0":              http.StatusBadRequest,
		"/v1/slice?dim=0&level=9":               http.StatusBadRequest,
		"/v1/slice?dim=0&member=99":             http.StatusBadRequest,
		"/v1/trend?members=1,1&k=400":           http.StatusNotFound,
		"/v1/trend?members=0,0&k=0":             http.StatusBadRequest,
		"/v1/supporters?levels=0,0&members=0,0": http.StatusBadRequest, // above the o-layer
		"/nope":                                 http.StatusNotFound,
	} {
		rec := get(t, srv, path, nil)
		if rec.Code != want {
			t.Errorf("GET %s: status %d, want %d (%s)", path, rec.Code, want, rec.Body.String())
		}
	}

	// Mutating methods are rejected by the route patterns.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/exceptions", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestMetricsCounters(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	get(t, srv, "/v1/exceptions", &query.CellsResponse{})
	get(t, srv, "/v1/exceptions", &query.CellsResponse{})
	rec := get(t, srv, "/metrics", nil)
	body := rec.Body.String()
	if !strings.Contains(body, `regcube_http_requests_total{endpoint="exceptions"} 2`) {
		t.Fatalf("metrics missing exception counter:\n%s", body)
	}
	if !strings.Contains(body, "regcube_serving 1") || !strings.Contains(body, "regcube_snapshot_unit 0") {
		t.Fatalf("metrics missing snapshot gauges:\n%s", body)
	}
	// The per-endpoint families keep their names and order: three per
	// endpoint, the endpoints in the order scrapers have always seen.
	var got, want []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "regcube_http_") && strings.Contains(line, "{endpoint=") {
			got = append(got, line[:strings.Index(line, "}")+1])
		}
	}
	for _, ep := range []string{"healthz", "metrics", "summary", "exceptions", "alerts", "supporters", "slice",
		"trend", "frame", "query", "info", "snapshot", "alertevents", "forecast", "changes"} {
		for _, family := range []string{"requests_total", "errors_total", "request_nanos_total"} {
			want = append(want, fmt.Sprintf("regcube_http_%s{endpoint=%q}", family, ep))
		}
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("per-endpoint families:\n%s\nwant:\n%s", g, w)
	}
	// Without a metrics hook the ingest counters stay off /metrics: a
	// query-only server has no ingest edge to report.
	if strings.Contains(body, "regcube_ingest_records_total") {
		t.Fatalf("ingest counters rendered without ingest stats:\n%s", body)
	}
}

// TestIngestMetrics asserts the per-format, per-source ingest counters
// render and move as the ingest edge reports decode progress and failures
// — and that piped and routed traffic land in distinct series.
func TestIngestMetrics(t *testing.T) {
	srv, _, _ := testServer(t, 2, 1)
	var stats wire.IngestStats
	srv.SetMetrics(stats.WriteMetrics)

	body := get(t, srv, "/metrics", nil).Body.String()
	for _, line := range []string{
		`regcube_ingest_records_total{format="text",source="stdin"} 0`,
		`regcube_ingest_records_total{format="text",source="tcp"} 0`,
		`regcube_ingest_records_total{format="binary",source="stdin"} 0`,
		`regcube_ingest_records_total{format="binary",source="tcp"} 0`,
		`regcube_ingest_frames_total{format="text",source="stdin"} 0`,
		`regcube_ingest_frames_total{format="binary",source="tcp"} 0`,
		`regcube_ingest_decode_errors_total{format="text",source="stdin"} 0`,
		`regcube_ingest_decode_errors_total{format="binary",source="tcp"} 0`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics missing %q:\n%s", line, body)
		}
	}

	stats.AddRecords(wire.FormatText, wire.SourceStdin, 7)
	stats.AddFrame(wire.FormatText, wire.SourceStdin)
	stats.AddRecords(wire.FormatBinary, wire.SourceTCP, 4096)
	stats.AddFrame(wire.FormatBinary, wire.SourceTCP)
	stats.AddFrame(wire.FormatBinary, wire.SourceTCP)
	stats.AddDecodeError(wire.FormatBinary, wire.SourceTCP)

	body = get(t, srv, "/metrics", nil).Body.String()
	for _, line := range []string{
		`regcube_ingest_records_total{format="text",source="stdin"} 7`,
		`regcube_ingest_frames_total{format="text",source="stdin"} 1`,
		`regcube_ingest_records_total{format="binary",source="tcp"} 4096`,
		`regcube_ingest_frames_total{format="binary",source="tcp"} 2`,
		`regcube_ingest_decode_errors_total{format="text",source="stdin"} 0`,
		`regcube_ingest_decode_errors_total{format="binary",source="tcp"} 1`,
		// Routed traffic never bleeds into the stdin series.
		`regcube_ingest_records_total{format="binary",source="stdin"} 0`,
		`regcube_ingest_frames_total{format="binary",source="stdin"} 0`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics did not move, missing %q:\n%s", line, body)
		}
	}
}

// Queries served over a real TCP listener stay unit-consistent while the
// coordinator keeps ingesting. (The deeper snapshot stress test lives in
// internal/stream; this exercises the full HTTP path.)
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		Shards:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(New(eng, schema))
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// /v1/changes makes the first request of each unit write the
	// executor's change scan, which the others then read.
	paths := []string{"/healthz", "/v1/exceptions?k=4", "/v1/summary", "/v1/alerts", "/v1/supporters?members=0,0", "/v1/changes"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				var body map[string]any
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || len(body) == 0 {
					t.Errorf("bad body: %v %v", err, body)
					return
				}
			}
		}(w)
	}
	for tick := int64(0); tick < 200; tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := eng.Ingest([]int32{a, b}, tick, float64(tick)*float64(a+b+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
