package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// execSchema is D2, fanout 2, m-level 2 (4×4 m-cells), o-level 1 (2×2
// o-cells) — the same fixture shape internal/serve tests use.
func execSchema(t testing.TB) *cube.Schema {
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

// execSnapshot ingests `units` full units and returns the published
// snapshot (rising values, so exceptions and alerts exist).
func execSnapshot(t testing.TB, units int, tiltLevels []tilt.Level) (*stream.Snapshot, *cube.Schema) {
	t.Helper()
	schema := execSchema(t)
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
	snap := eng.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	return snap, schema
}

func execTestExecutor(t testing.TB, units int, tiltLevels []tilt.Level) *Executor {
	t.Helper()
	snap, schema := execSnapshot(t, units, tiltLevels)
	ex, err := NewExecutor(schema, snap)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestExecuteValidation sweeps every request kind against invalid limits,
// cells, levels, and members: each must fail with the right sentinel and
// never reach the snapshot.
func TestExecuteValidation(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"exceptions negative k", ExceptionsRequest{K: -1}, ErrInvalid},
		{"exceptions bad order", ExceptionsRequest{Order: "bogus"}, ErrInvalid},
		{"supporters negative k", SupportersRequest{CellRef: OCell(0, 0), K: -2}, ErrInvalid},
		{"supporters bad member", SupportersRequest{CellRef: OCell(9, 9)}, ErrCell},
		{"supporters wrong arity", SupportersRequest{CellRef: OCell(0)}, ErrCell},
		{"supporters missing members", SupportersRequest{}, ErrCell},
		{"supporters above o-layer", SupportersRequest{CellRef: Cell([]int{0, 0}, []int32{0, 0})}, ErrCell},
		{"slice negative k", SliceRequest{Dim: 0, Level: 1, Member: 0, K: -1}, ErrInvalid},
		{"slice dim high", SliceRequest{Dim: 5, Member: 0}, ErrInvalid},
		{"slice dim negative", SliceRequest{Dim: -1, Member: 0}, ErrInvalid},
		{"slice level high", SliceRequest{Dim: 0, Level: 9, Member: 0}, ErrInvalid},
		{"slice level negative", SliceRequest{Dim: 0, Level: -1, Member: 0}, ErrInvalid},
		{"slice member high", SliceRequest{Dim: 0, Level: 1, Member: 99}, ErrInvalid},
		{"slice member negative", SliceRequest{Dim: 0, Level: 1, Member: -1}, ErrInvalid},
		{"trend negative k", TrendRequest{CellRef: OCell(0, 0), K: -3}, ErrInvalid},
		{"trend negative level", TrendRequest{CellRef: OCell(0, 0), Level: -1}, ErrInvalid},
		{"trend bad cell", TrendRequest{CellRef: OCell(4, 0)}, ErrCell},
		{"trend level on flat engine", TrendRequest{CellRef: OCell(0, 0), Level: 1}, ErrInvalid},
		{"frame bad cell", FrameRequest{CellRef: OCell(-1, 0)}, ErrCell},
		{"frame bad levels", FrameRequest{CellRef: Cell([]int{0, 9}, []int32{0, 0})}, ErrCell},
		{"nil request", nil, ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ex.Execute(tc.req)
			if resp != nil {
				t.Fatalf("Execute returned a response alongside the expected error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Execute err = %v, want %v", err, tc.want)
			}
			// Every sentinel must map to a 4xx transport status.
			if st := HTTPStatus(err); st != http.StatusBadRequest {
				t.Fatalf("HTTPStatus = %d, want 400", st)
			}
		})
	}
}

// TestExecuteNotFound covers the well-formed-but-absent cases: over-long
// trends and unknown frames map to ErrNotFound (404), distinct from
// validation failures.
func TestExecuteNotFound(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	if _, err := ex.Execute(TrendRequest{CellRef: OCell(0, 0), K: 99}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("over-long trend err = %v, want ErrNotFound", err)
	}
	tex := execTestExecutor(t, 13, []tilt.Level{
		{Name: "quarter", Multiple: 1, Slots: 3},
		{Name: "hour", Multiple: 3, Slots: 4},
	})
	if _, err := tex.Execute(TrendRequest{CellRef: OCell(0, 0), K: 99, Level: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("over-long hour trend err = %v, want ErrNotFound", err)
	}
	if _, err := tex.Execute(TrendRequest{CellRef: OCell(0, 0), K: 1, Level: 9}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range level err = %v, want ErrInvalid", err)
	}
	if st := HTTPStatus(errNotFoundProbe(tex)); st != http.StatusNotFound {
		t.Fatalf("HTTPStatus(not-found) = %d, want 404", st)
	}
}

func errNotFoundProbe(ex *Executor) error {
	_, err := ex.Execute(TrendRequest{CellRef: OCell(0, 0), K: 99})
	return err
}

// TestExecuteMatchesView asserts the dispatcher answers from the same
// navigation state a direct View walk produces.
func TestExecuteMatchesView(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	snap := ex.Snapshot()
	v := NewView(snap.Result)

	resp, err := ex.Execute(ExceptionsRequest{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cells := resp.(*CellsResponse)
	if cells.Count != snap.Result.NumExceptions() || len(cells.Cells) != 5 {
		t.Fatalf("exceptions = count %d, %d cells", cells.Count, len(cells.Cells))
	}
	want := v.TopExceptions(5)
	for i, c := range cells.Cells {
		if c.ISB.Slope != want[i].ISB.Slope {
			t.Fatalf("cell %d slope %g, want %g", i, c.ISB.Slope, want[i].ISB.Slope)
		}
	}

	// K=0 returns the complete set on every truncating kind.
	resp, err = ex.Execute(ExceptionsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(*CellsResponse); len(got.Cells) != got.Count {
		t.Fatalf("K=0 truncated: %d of %d", len(got.Cells), got.Count)
	}

	sresp, err := ex.Execute(SupportersRequest{CellRef: OCell(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sup := sresp.(*SupportersResponse)
	oCell := cube.NewCellKey(cube.MustCuboid(1, 1), 1, 1)
	if wantSup := v.Supporters(oCell); sup.Count != len(wantSup) || !sup.Retained {
		t.Fatalf("supporters = %+v, want %d retained", sup, len(wantSup))
	}

	slresp, err := ex.Execute(SliceRequest{Dim: 0, Level: 1, Member: 1})
	if err != nil {
		t.Fatal(err)
	}
	sl := slresp.(*CellsResponse)
	if wantSl := v.Slice(0, 1, 1); sl.Count != len(wantSl) {
		t.Fatalf("slice count %d, want %d", sl.Count, len(wantSl))
	}

	tresp, err := ex.Execute(TrendRequest{CellRef: OCell(0, 0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := tresp.(*TrendResponse)
	wantISB, err := snap.TrendQuery(oCellKey(0, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cell.ISB.Slope != wantISB.Slope || len(tr.Points) != 3 {
		t.Fatalf("trend = %+v, want slope %g over 3 points", tr, wantISB.Slope)
	}

	// Pointer and value forms dispatch identically.
	presp, err := ex.Execute(&TrendRequest{CellRef: OCell(0, 0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(presp, tresp) {
		t.Fatalf("pointer dispatch differs: %+v vs %+v", presp, tresp)
	}
}

func oCellKey(a, b int32) cube.CellKey {
	return cube.NewCellKey(cube.MustCuboid(1, 1), a, b)
}

// TestExecutorUnavailable pins the no-snapshot sentinel.
func TestExecutorUnavailable(t *testing.T) {
	if _, err := NewExecutor(execSchema(t), nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("NewExecutor(nil) err = %v, want ErrUnavailable", err)
	}
	if st := HTTPStatus(ErrUnavailable); st != http.StatusServiceUnavailable {
		t.Fatalf("HTTPStatus(ErrUnavailable) = %d, want 503", st)
	}
}

// allKinds lists every Kind constant, for the tests that hold the kinds
// table to the union.
var allKinds = []Kind{
	KindSummary, KindExceptions, KindAlerts, KindSupporters, KindSlice,
	KindTrend, KindFrame, KindForecast, KindChanges,
}

// TestRequestJSONRoundTrip marshals requests of every kind through their
// envelope and back: the decoded request must equal the original, so the
// batch wire format is lossless. A rejected envelope keeps no request.
func TestRequestJSONRoundTrip(t *testing.T) {
	threshold := 42.5
	reqs := []Request{
		SummaryRequest{},
		ExceptionsRequest{K: 7, Order: OrderKey},
		ExceptionsRequest{},
		AlertsRequest{},
		SupportersRequest{CellRef: OCell(1, 0), K: 3},
		SupportersRequest{CellRef: Cell([]int{1, 2}, []int32{0, 3})},
		SliceRequest{Dim: 1, Level: 2, Member: 3, K: 2},
		TrendRequest{CellRef: OCell(0, 1), K: 4, Level: 1},
		FrameRequest{CellRef: OCell(0, 0)},
		ForecastRequest{CellRef: OCell(1, 0), Horizon: 30},
		ForecastRequest{CellRef: Cell([]int{1, 1}, []int32{0, 1}), K: 4, Horizon: 7, Threshold: &threshold},
		ChangesRequest{},
		ChangesRequest{K: 5, MinScore: 0.25},
	}
	seen := map[Kind]bool{}
	for _, req := range reqs {
		seen[req.Kind()] = true
		b, err := json.Marshal(Envelope{Request: req})
		if err != nil {
			t.Fatalf("marshal %T: %v", req, err)
		}
		var e Envelope
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !reflect.DeepEqual(e.Request, req) {
			t.Fatalf("round trip of %s: %#v != %#v", b, e.Request, req)
		}
		// The discriminator is flattened next to the request fields.
		var probe map[string]any
		if err := json.Unmarshal(b, &probe); err != nil {
			t.Fatal(err)
		}
		if probe["kind"] != string(req.Kind()) {
			t.Fatalf("wire form %s carries kind %v, want %s", b, probe["kind"], req.Kind())
		}
	}
	for _, k := range allKinds {
		if !seen[k] {
			t.Errorf("no round trip of kind %q", k)
		}
	}

	for _, bad := range []string{
		`{"k":3}`,                          // missing kind
		`{"kind":"nope"}`,                  // unknown kind
		`{"kind":"trend","k":"five"}`,      // mistyped field
		`{"kind":"forecast","horizon":[]}`, // mistyped field
		`{"kind":"changes","minScore":{}}`, // mistyped field
		`[]`,                               // not an object
	} {
		e := Envelope{}
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Fatalf("unmarshal %s succeeded, want error", bad)
		}
		if e.Request != nil {
			t.Fatalf("unmarshal %s failed but set Request %#v", bad, e.Request)
		}
	}
}

// TestKindsTable holds the union to its one table: every Kind has a row;
// each kind's request, value or pointer, executes to the response type
// its row names; and DecodeResponse of that response's JSON gives it back.
func TestKindsTable(t *testing.T) {
	if len(kinds) != len(allKinds) {
		t.Fatalf("kinds has %d rows for %d kinds", len(kinds), len(allKinds))
	}
	ex := execTestExecutor(t, 13, execTiltChain)
	for _, req := range []Request{
		SummaryRequest{},
		ExceptionsRequest{K: 3},
		AlertsRequest{},
		SupportersRequest{CellRef: OCell(1, 1)},
		SliceRequest{Dim: 0, Level: 1, Member: 1},
		TrendRequest{CellRef: OCell(0, 0), K: 2, Level: 1},
		FrameRequest{CellRef: OCell(0, 0)},
		ForecastRequest{CellRef: OCell(0, 0), Horizon: 4},
		ChangesRequest{},
	} {
		k := req.Kind()
		t.Run(string(k), func(t *testing.T) {
			row, ok := kinds[k]
			if !ok {
				t.Fatalf("no kinds row for %q", k)
			}
			resp, err := ex.Execute(req)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reflect.TypeOf(resp), reflect.TypeOf(row.response()); got != want {
				t.Fatalf("Execute answered %v, the row names %v", got, want)
			}
			ptr := reflect.New(reflect.TypeOf(req))
			ptr.Elem().Set(reflect.ValueOf(req))
			presp, err := ex.Execute(ptr.Interface().(Request))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(presp, resp) {
				t.Fatalf("pointer form answered %+v, value form %+v", presp, resp)
			}
			raw, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeResponse(k, raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, resp) {
				t.Fatalf("DecodeResponse of %s:\n got %+v\nwant %+v", raw, back, resp)
			}
		})
	}
	if _, err := DecodeResponse("nope", []byte(`{}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("DecodeResponse of an unknown kind: %v, want ErrInvalid", err)
	}
}

// TestExecuteBatch mixes valid and invalid sub-requests: results come
// back in order, each with its own status, and the batch itself reports
// the snapshot's unit.
func TestExecuteBatch(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	batch := ex.ExecuteBatch(Wrap(
		SummaryRequest{},
		ExceptionsRequest{K: 2},
		SupportersRequest{CellRef: OCell(9, 9)},   // invalid member
		TrendRequest{CellRef: OCell(0, 0), K: 99}, // more units than recorded
		AlertsRequest{},
	))
	if batch.Unit != ex.Snapshot().Unit || batch.UnitsDone != ex.Snapshot().UnitsDone {
		t.Fatalf("batch header = %+v", batch)
	}
	if len(batch.Results) != 5 {
		t.Fatalf("batch has %d results, want 5", len(batch.Results))
	}
	wantOK := []bool{true, true, false, false, true}
	wantStatus := []int{0, 0, http.StatusBadRequest, http.StatusNotFound, 0}
	for i, res := range batch.Results {
		if res.OK != wantOK[i] || res.Status != wantStatus[i] {
			t.Fatalf("result %d = ok=%v status=%d, want ok=%v status=%d",
				i, res.OK, res.Status, wantOK[i], wantStatus[i])
		}
	}
	// Typed decode of a success and sentinel mapping of a failure.
	resp, err := batch.Results[1].Decode(KindExceptions)
	if err != nil {
		t.Fatal(err)
	}
	if cells := resp.(*CellsResponse); len(cells.Cells) != 2 {
		t.Fatalf("decoded exceptions = %+v", cells)
	}
	if _, err := batch.Results[2].Decode(KindSupporters); !errors.Is(err, ErrInvalid) {
		t.Fatalf("decoded invalid result err = %v, want ErrInvalid", err)
	}
	if _, err := batch.Results[3].Decode(KindTrend); !errors.Is(err, ErrNotFound) {
		t.Fatalf("decoded missing result err = %v, want ErrNotFound", err)
	}
}

// TestBatchResponseAppendJSON holds the hand-written batch envelope to
// encoding/json: json.Marshal's bytes — and json.Encoder's, newline aside
// — for an executed batch and for results exercising every omitempty
// field, HTML escaping and an invalid UTF-8 error message.
func TestBatchResponseAppendJSON(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	for i, batch := range []*BatchResponse{
		ex.ExecuteBatch(Wrap(
			SummaryRequest{},
			ExceptionsRequest{K: 2},
			SupportersRequest{CellRef: OCell(9, 9)},
			TrendRequest{CellRef: OCell(0, 0), K: 99},
			AlertsRequest{},
			FrameRequest{CellRef: OCell(0, 0)},
		)),
		{Unit: -3, UnitsDone: 1 << 40, Results: []BatchResult{
			{Status: 500, Error: "<a href=\"x\">&\u2028\xff"},
			{OK: true, Result: json.RawMessage(`{"name":"\u003cA:1\u003e","v":[1,2.5e-7]}`)},
			{},
		}},
		{Results: []BatchResult{}},
		{},
	} {
		want, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		got := batch.AppendJSON([]byte("prefix"))
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("batch %d:\n got %s\nwant %s", i, got[len("prefix"):], want)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got[len("prefix"):], '\n'), enc.Bytes()) {
			t.Fatalf("batch %d: Encoder wrote %s", i, enc.Bytes())
		}
	}
}

// TestExecuteEmptyUnit runs every kind against a snapshot whose unit
// closed with no data: per-cell kinds answer empty rather than erroring,
// exactly like the pre-v2 handlers.
func TestExecuteEmptyUnit(t *testing.T) {
	schema := execSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unit 0 has data; tick 8 closes units 0 and 1, so the latest
	// published snapshot is the empty unit 1.
	for tick := int64(0); tick < 4; tick++ {
		if _, err := eng.Ingest([]int32{0, 0}, tick, float64(tick)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Ingest([]int32{0, 0}, 8, 1); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap == nil || snap.Result != nil {
		t.Fatalf("want an empty-unit snapshot, got %+v", snap)
	}
	ex, err := NewExecutor(schema, snap)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ex.Execute(SummaryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if s := sum.(*SummaryResponse); !s.Empty || s.Stats != nil || len(s.Cuboids) != 0 {
		t.Fatalf("empty-unit summary = %+v", s)
	}
	for _, req := range []Request{
		ExceptionsRequest{K: 5},
		AlertsRequest{},
		SupportersRequest{CellRef: OCell(0, 0)},
		SliceRequest{Dim: 0, Level: 1, Member: 0},
	} {
		if _, err := ex.Execute(req); err != nil {
			t.Fatalf("%T on empty unit: %v", req, err)
		}
	}
}
