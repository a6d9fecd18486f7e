package query

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/insight"
	"repro/internal/tilt"
)

var execTiltChain = []tilt.Level{
	{Name: "quarter", Multiple: 1, Slots: 3},
	{Name: "hour", Multiple: 3, Slots: 4},
	{Name: "day", Multiple: 2, Slots: 2},
}

// TestForecastValidation sweeps the new kinds' parameter rules: each bad
// request fails with the right sentinel before touching the snapshot.
func TestForecastValidation(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"forecast negative k", ForecastRequest{CellRef: OCell(0, 0), K: -1, Horizon: 5}, ErrInvalid},
		{"forecast zero horizon", ForecastRequest{CellRef: OCell(0, 0)}, ErrInvalid},
		{"forecast negative horizon", ForecastRequest{CellRef: OCell(0, 0), Horizon: -4}, ErrInvalid},
		{"forecast nan threshold", ForecastRequest{CellRef: OCell(0, 0), Horizon: 5, Threshold: &nan}, ErrInvalid},
		{"forecast inf threshold", ForecastRequest{CellRef: OCell(0, 0), Horizon: 5, Threshold: &inf}, ErrInvalid},
		{"forecast bad cell", ForecastRequest{CellRef: OCell(9, 9), Horizon: 5}, ErrCell},
		{"forecast missing members", ForecastRequest{Horizon: 5}, ErrCell},
		{"changes negative k", ChangesRequest{K: -1}, ErrInvalid},
		{"changes score below range", ChangesRequest{MinScore: -0.1}, ErrInvalid},
		{"changes score above range", ChangesRequest{MinScore: 1.5}, ErrInvalid},
		{"changes nan score", ChangesRequest{MinScore: nan}, ErrInvalid},
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
			if st := HTTPStatus(err); st != http.StatusBadRequest {
				t.Fatalf("HTTPStatus = %d, want 400", st)
			}
		})
	}
}

// TestForecastExecute: the fixture's values rise linearly per tick, so
// the model fits near-perfectly and a high threshold is forecast to
// breach.
func TestForecastExecute(t *testing.T) {
	ex := execTestExecutor(t, 3, nil)
	threshold := 1000.0
	resp, err := ex.Execute(ForecastRequest{CellRef: OCell(0, 0), Horizon: 8, Threshold: &threshold})
	if err != nil {
		t.Fatal(err)
	}
	f := resp.(*ForecastResponse)
	if f.K != 3 || f.History != 3 {
		t.Fatalf("window/history = %d/%d, want 3/3", f.K, f.History)
	}
	if f.Now != 11 || f.Horizon != 8 {
		t.Fatalf("now/horizon = %d/%d, want 11/8", f.Now, f.Horizon)
	}
	if f.R2 < 0.999 {
		t.Fatalf("linear fixture R2 = %g, want ~1", f.R2)
	}
	if f.Predicted <= f.Cell.ISB.Base+f.Cell.ISB.Slope*float64(f.Now) {
		t.Fatalf("prediction %g did not extrapolate a rising slope", f.Predicted)
	}
	if f.TicksToThreshold == nil || *f.TicksToThreshold <= 0 {
		t.Fatalf("rising cell below threshold: ticksToThreshold = %v, want > 0", f.TicksToThreshold)
	}
	if f.WillBreach {
		t.Fatalf("threshold %g is far beyond an 8-tick horizon, willBreach should be false", threshold)
	}

	// Explicit window smaller than history.
	resp, err = ex.Execute(&ForecastRequest{CellRef: OCell(0, 0), K: 2, Horizon: 8})
	if err != nil {
		t.Fatal(err)
	}
	if f := resp.(*ForecastResponse); f.K != 2 || f.History != 3 || f.Threshold != nil || f.TicksToThreshold != nil {
		t.Fatalf("k=2 forecast = %+v", f)
	}

	// Over-long windows are 404, mirroring trend.
	if _, err := ex.Execute(ForecastRequest{CellRef: OCell(0, 0), K: 99, Horizon: 8}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("over-long window err = %v, want ErrNotFound", err)
	}
}

// TestChangesExecute: tilted fixtures score cells, default (one-level)
// ones answer a structurally empty (not error) response — the load
// generator hits this endpoint against any engine.
func TestChangesExecute(t *testing.T) {
	flat := execTestExecutor(t, 3, nil)
	resp, err := flat.Execute(ChangesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	c := resp.(*ChangesResponse)
	if c.Tilted || c.Count != 0 || c.Cells == nil || len(c.Cells) != 0 {
		t.Fatalf("flat changes = %+v, want tilted=false, empty cells", c)
	}

	tex := execTestExecutor(t, 13, execTiltChain)
	resp, err = tex.Execute(&ChangesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	c = resp.(*ChangesResponse)
	if !c.Tilted {
		t.Fatal("tilted engine reported tilted=false")
	}
	if c.Count != 4 || len(c.Cells) != 4 {
		t.Fatalf("scored %d/%d cells, want all 4 o-cells", c.Count, len(c.Cells))
	}
	for i := 1; i < len(c.Cells); i++ {
		if c.Cells[i].Score > c.Cells[i-1].Score {
			t.Fatalf("cells not score-descending at %d", i)
		}
	}

	// K truncates, Count keeps the pre-truncation total.
	resp, err = tex.Execute(ChangesRequest{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	top := resp.(*ChangesResponse)
	if top.Count != 4 || len(top.Cells) != 2 || !reflect.DeepEqual(top.Cells, c.Cells[:2]) {
		t.Fatalf("k=2 changes = count %d, %d cells", top.Count, len(top.Cells))
	}

	// The scan aggregates slots where they lie and ranks in one buffer:
	// what a query allocates is its answer — three per returned cell
	// (levels, members, name) and a handful around them — whatever the
	// number of frames scanned and slots aggregated.
	var req Request = ChangesRequest{K: 2}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = tex.Execute(req) }); allocs > 3*2+5 {
		t.Fatalf("a changes query returning 2 of 4 scored cells allocates %v times", allocs)
	}

	// MinScore filters: 1.0 keeps only full divergence (none in the
	// steady fixture).
	resp, err = tex.Execute(ChangesRequest{MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hi := resp.(*ChangesResponse); hi.Count != 0 || len(hi.Cells) != 0 {
		t.Fatalf("minScore=1 changes = %+v, want none", hi)
	}
}

// TestChangesAnswerFromOneScan: an executor scans its snapshot once, and
// every changes request — at any minimum score, at the scores themselves,
// truncated or not, in any order — answers what a scan at that score
// would rank.
func TestChangesAnswerFromOneScan(t *testing.T) {
	tex := execTestExecutor(t, 13, execTiltChain)
	full := insight.ScanChanges(tex.Snapshot(), 0, 0)
	if len(full) < 2 {
		t.Fatalf("fixture scores %d cells", len(full))
	}
	scores := []float64{1, 0.5, 0}
	for _, c := range full {
		scores = append(scores, c.Score, math.Nextafter(c.Score, 2))
	}
	for _, minScore := range scores {
		for _, k := range []int{0, 1, 2, len(full) + 1} {
			resp, err := tex.Execute(ChangesRequest{K: k, MinScore: minScore})
			if err != nil {
				t.Fatal(err)
			}
			got := resp.(*ChangesResponse)
			want := insight.ScanChanges(tex.Snapshot(), minScore, 0)
			if got.Count != len(want) {
				t.Fatalf("minScore %v: count %d, a scan at that score ranks %d", minScore, got.Count, len(want))
			}
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			if len(got.Cells) != len(want) {
				t.Fatalf("minScore %v, k %d: %d cells, want %d", minScore, k, len(got.Cells), len(want))
			}
			for i, c := range want {
				levels, members := encodeKey(c.Key)
				if g := got.Cells[i]; g.Score != c.Score || !reflect.DeepEqual(g.Levels, levels) || !reflect.DeepEqual(g.Members, members) {
					t.Fatalf("minScore %v, k %d: cell %d is %+v, want %v scoring %v", minScore, k, i, g, c.Key, c.Score)
				}
			}
		}
	}
}

// TestForecastEnvelopeRoundTrip pins the wire bytes of the predictive
// kinds through the envelope union: the threshold pointer appears only
// when set, and zero fields are omitted. The bytes decode back to the
// request; TestRequestJSONRoundTrip covers the round trip of every kind.
func TestForecastEnvelopeRoundTrip(t *testing.T) {
	threshold := 42.5
	for _, c := range []struct {
		req  Request
		wire string
	}{
		{ForecastRequest{CellRef: OCell(1, 0), Horizon: 30},
			`{"kind":"forecast","members":[1,0],"horizon":30}`},
		{ForecastRequest{CellRef: Cell([]int{1, 1}, []int32{0, 1}), K: 4, Horizon: 7, Threshold: &threshold},
			`{"kind":"forecast","levels":[1,1],"members":[0,1],"k":4,"horizon":7,"threshold":42.5}`},
		{ChangesRequest{}, `{"kind":"changes"}`},
		{ChangesRequest{K: 5, MinScore: 0.25}, `{"kind":"changes","k":5,"minScore":0.25}`},
	} {
		b, err := json.Marshal(Envelope{Request: c.req})
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.wire {
			t.Fatalf("wire form of %+v:\n got %s\nwant %s", c.req, b, c.wire)
		}
		var back Envelope
		if err := json.Unmarshal([]byte(c.wire), &back); err != nil {
			t.Fatalf("unmarshal %s: %v", c.wire, err)
		}
		if !reflect.DeepEqual(back.Request, c.req) {
			t.Fatalf("round trip %s:\n got %+v\nwant %+v", c.wire, back.Request, c.req)
		}
	}
}

// TestForecastBatch: the new kinds ride POST /v1/query batches next to
// the existing ones, and DecodeResponse restores their types.
func TestForecastBatch(t *testing.T) {
	ex := execTestExecutor(t, 13, execTiltChain)
	threshold := 1e6
	batch := ex.ExecuteBatch(Wrap(
		ForecastRequest{CellRef: OCell(0, 0), Horizon: 12, Threshold: &threshold},
		ChangesRequest{K: 3},
		ForecastRequest{CellRef: OCell(0, 0)}, // invalid: no horizon
	))
	if !batch.Results[0].OK || !batch.Results[1].OK {
		t.Fatalf("valid requests failed: %+v", batch.Results[:2])
	}
	if batch.Results[2].OK || batch.Results[2].Status != http.StatusBadRequest {
		t.Fatalf("missing horizon: %+v, want 400", batch.Results[2])
	}
	r0, err := batch.Results[0].Decode(KindForecast)
	if err != nil {
		t.Fatal(err)
	}
	if f := r0.(*ForecastResponse); f.Horizon != 12 || f.Threshold == nil || *f.Threshold != threshold {
		t.Fatalf("decoded forecast = %+v", f)
	}
	r1, err := batch.Results[1].Decode(KindChanges)
	if err != nil {
		t.Fatal(err)
	}
	if c := r1.(*ChangesResponse); !c.Tilted || len(c.Cells) > 3 {
		t.Fatalf("decoded changes = %+v", c)
	}
}
