package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// tiltServer is testServer with a tilt level chain: 3 engine units per
// "hour", 2 hours per "day".
func tiltServer(t testing.TB, shards, units int) (*Server, *stream.Engine, *cube.Schema) {
	t.Helper()
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		TiltLevels: []tilt.Level{
			{Name: "quarter", Multiple: 1, Slots: 3},
			{Name: "hour", Multiple: 3, Slots: 4},
			{Name: "day", Multiple: 2, Slots: 2},
		},
		Shards: shards,
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
	if _, err := eng.Ingest([]int32{0, 0}, int64(4*units), 0); err != nil {
		t.Fatal(err)
	}
	return New(eng, schema), eng, schema
}

// TestParamLowerBounds is the table-driven sweep of the centralized
// intParam minimum: every endpoint's integer parameters reject explicit
// below-minimum values with a 400 JSON error, uniformly.
func TestParamLowerBounds(t *testing.T) {
	srv, _, _ := testServer(t, 2, 3)
	cases := []struct {
		endpoint string
		path     string
	}{
		// ?k= limits: minimum 1 everywhere.
		{"exceptions", "/v1/exceptions?k=0"},
		{"exceptions", "/v1/exceptions?k=-1"},
		{"exceptions", "/v1/exceptions?k=-7&order=key"},
		{"supporters", "/v1/supporters?members=0,0&k=0"},
		{"supporters", "/v1/supporters?members=0,0&k=-2"},
		{"slice", "/v1/slice?dim=0&level=1&member=0&k=0"},
		{"slice", "/v1/slice?dim=0&level=1&member=0&k=-1"},
		{"trend", "/v1/trend?members=0,0&k=0"},
		{"trend", "/v1/trend?members=0,0&k=-3"},
		// Coordinates: minimum 0.
		{"slice", "/v1/slice?dim=-1&member=0"},
		{"slice", "/v1/slice?dim=0&level=-2&member=0"},
		{"slice", "/v1/slice?dim=0&level=1&member=-1"},
		{"trend", "/v1/trend?members=0,0&k=1&level=-1"},
		// Non-integers and coordinates past the schema keep failing too.
		{"exceptions", "/v1/exceptions?k=ten"},
		{"slice", "/v1/slice?dim=x&member=0"},
		{"slice", "/v1/slice?dim=99&member=0"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%s)", tc.path, rec.Code, rec.Body.String())
			continue
		}
		var body struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Errorf("GET %s: non-JSON error body %s", tc.path, rec.Body.String())
		}
		if strings.HasSuffix(tc.path, "k=0") && !strings.Contains(body.Error, "below minimum") {
			t.Errorf("GET %s: error %q does not name the minimum", tc.path, body.Error)
		}
	}
}

// TestLimitsTruncateUniformly pins the happy-path semantics of the new
// ?k= limits on supporters and slice: count reports the full set, cells
// truncate.
func TestLimitsTruncateUniformly(t *testing.T) {
	srv, _, _ := testServer(t, 2, 3)
	var full, limited query.SupportersResponse
	get(t, srv, "/v1/supporters?members=1,1", &full)
	get(t, srv, "/v1/supporters?members=1,1&k=1", &limited)
	if full.Count == 0 || full.Count != len(full.Supporters) {
		t.Fatalf("unlimited supporters = %+v", full)
	}
	if limited.Count != full.Count || len(limited.Supporters) != 1 {
		t.Fatalf("limited supporters kept %d of %d (count %d)",
			len(limited.Supporters), full.Count, limited.Count)
	}
	var fullSlice, limSlice query.CellsResponse
	get(t, srv, "/v1/slice?dim=0&level=1&member=1", &fullSlice)
	get(t, srv, "/v1/slice?dim=0&level=1&member=1&k=2", &limSlice)
	if fullSlice.Count < 2 || len(fullSlice.Cells) != fullSlice.Count {
		t.Fatalf("unlimited slice = %+v", fullSlice)
	}
	if limSlice.Count != fullSlice.Count || len(limSlice.Cells) != 2 {
		t.Fatalf("limited slice kept %d of %d", len(limSlice.Cells), limSlice.Count)
	}
}

// TestTrendLevels exercises /v1/trend?level= against a tilted engine:
// level 0 equals the default, coarser levels answer from promoted slots,
// and out-of-range levels are 400s.
func TestTrendLevels(t *testing.T) {
	// 13 units: hours complete at units 3,6,9,12 → 4 hours; days at 6,12.
	srv, _, _ := tiltServer(t, 3, 13)
	var def, l0, l1, l2 query.TrendResponse
	get(t, srv, "/v1/trend?members=1,1&k=2", &def)
	get(t, srv, "/v1/trend?members=1,1&k=2&level=0", &l0)
	if def.Cell.ISB != l0.Cell.ISB || len(def.Points) != 2 || len(l0.Points) != 2 {
		t.Fatalf("level=0 differs from default: %+v vs %+v", def, l0)
	}
	get(t, srv, "/v1/trend?members=1,1&k=2&level=1", &l1)
	if l1.Level != "hour" || len(l1.Points) != 2 {
		t.Fatalf("hour trend = %+v", l1)
	}
	if n := l1.Cell.ISB.Te - l1.Cell.ISB.Tb + 1; n != 2*3*4 {
		t.Fatalf("2-hour trend spans %d ticks, want 24", n)
	}
	get(t, srv, "/v1/trend?members=1,1&k=1&level=2", &l2)
	if l2.Level != "day" {
		t.Fatalf("day trend = %+v", l2)
	}
	if n := l2.Cell.ISB.Te - l2.Cell.ISB.Tb + 1; n != 6*4 {
		t.Fatalf("day trend spans %d ticks, want 24", n)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trend?members=1,1&k=1&level=9", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range level: status %d", rec.Code)
	}
	// Asking for more units than a level retains is 404, like level 0.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trend?members=1,1&k=99&level=1", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("over-long hour trend: status %d", rec.Code)
	}
}

// TestTrendLevelOnFlatEngine asserts a default engine answers ?level= by
// the same rule as any other chain: its one level is level 0, anything
// coarser is outside [0,1).
func TestTrendLevelOnFlatEngine(t *testing.T) {
	srv, _, _ := testServer(t, 2, 3)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trend?members=0,0&k=1&level=1", nil))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "parameter level: 1 outside [0,1)") {
		t.Fatalf("default-engine level trend: status %d body %s", rec.Code, rec.Body.String())
	}
	var explicit, implied query.TrendResponse
	get(t, srv, "/v1/trend?members=0,0&k=2&level=0", &explicit)
	get(t, srv, "/v1/trend?members=0,0&k=2", &implied)
	if !reflect.DeepEqual(explicit, implied) || len(explicit.Points) != 2 {
		t.Fatalf("level=0 trend %+v differs from the default %+v", explicit, implied)
	}
}

// TestFrameEndpointTilted walks the full per-level listing.
func TestFrameEndpointTilted(t *testing.T) {
	srv, eng, _ := tiltServer(t, 3, 13)
	var fr query.FrameResponse
	get(t, srv, "/v1/frame?members=1,0", &fr)
	if !fr.Tilted {
		t.Fatalf("frame = %+v, want tilted", fr)
	}
	if len(fr.Levels) != 3 || fr.Levels[0].Name != "quarter" || fr.Levels[2].Name != "day" {
		t.Fatalf("levels = %+v", fr.Levels)
	}
	wantTicks := []int64{4, 12, 24}
	wantSlots := []int{3, 4, 2}
	total := 0
	for i, lv := range fr.Levels {
		if lv.UnitTicks != wantTicks[i] {
			t.Fatalf("level %d unitTicks %d, want %d", i, lv.UnitTicks, wantTicks[i])
		}
		if lv.Capacity != wantSlots[i] || len(lv.Slots) > lv.Capacity {
			t.Fatalf("level %d holds %d slots, cap %d (want cap %d)", i, len(lv.Slots), lv.Capacity, wantSlots[i])
		}
		total += len(lv.Slots)
	}
	if fr.SlotsInUse != total || total == 0 {
		t.Fatalf("slotsInUse %d, summed %d", fr.SlotsInUse, total)
	}
	// The response mirrors the engine's published snapshot exactly.
	snap := eng.Snapshot()
	if snap == nil || snap.Frames == nil {
		t.Fatal("engine published no frames")
	}
	// Unknown cells 404; bad coordinates 400.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/frame?members=9,9", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range members: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/frame?levels=2,2&members=3,3", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("non-o-cell frame: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestFrameEndpointFlat asserts a default engine lists its real frame: the
// one "unit" level of the default chain with its capacity and base, by the
// same code path as a tilted engine (unknown cells 404 alike).
func TestFrameEndpointFlat(t *testing.T) {
	srv, _, _ := testServer(t, 2, 5)
	var fr query.FrameResponse
	get(t, srv, "/v1/frame?members=0,0", &fr)
	if fr.Tilted {
		t.Fatalf("default frame = %+v, want tilted=false: one level is no tilt", fr)
	}
	if len(fr.Levels) != 1 || fr.Levels[0].Name != "unit" || fr.Levels[0].Capacity != 64 || fr.Base != 0 {
		t.Fatalf("default levels = %+v (base %d), want one unit level of capacity 64 from unit 0", fr.Levels, fr.Base)
	}
	if got := len(fr.Levels[0].Slots); got != 5 || fr.SlotsInUse != 5 || fr.Levels[0].Completed != 5 {
		t.Fatalf("default frame retains %d slots (inUse %d, completed %d), want 5", got, fr.SlotsInUse, fr.Levels[0].Completed)
	}
	if fr.Levels[0].UnitTicks != 4 {
		t.Fatalf("default unitTicks = %d, want 4", fr.Levels[0].UnitTicks)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/frame?levels=2,2&members=3,3", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("non-o-cell frame: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestFrameMetricsCounter asserts the new endpoint is instrumented.
func TestFrameMetricsCounter(t *testing.T) {
	srv, _, _ := tiltServer(t, 2, 7)
	get(t, srv, "/v1/frame?members=0,0", &query.FrameResponse{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := fmt.Sprintf("regcube_http_requests_total{endpoint=%q} 1", "frame")
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
	}
}
