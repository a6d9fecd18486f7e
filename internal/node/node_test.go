package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/query"
	"repro/internal/wire"
)

// syncWriter makes a bytes.Buffer safe for the runtime's two writers (the
// report path and the log handler's goroutine).
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// risingFeed returns text records over `ticks` ticks whose values rise
// steeply with the tick, so every cell's slope breaches any small
// threshold once a unit closes.
func risingFeed(ticks int) string { return risingTicks(0, ticks) }

// risingTicks is risingFeed's records for ticks [from, to).
func risingTicks(from, to int) string {
	var sb strings.Builder
	for tick := from; tick < to; tick++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%g\n", tick, a, b, float64(tick)*float64(a+2*b+1))
			}
		}
	}
	return sb.String()
}

// eventSink is an httptest webhook that keeps every alert event POSTed
// to it, in arrival order.
func eventSink(t *testing.T) (url string, events func() []alert.EventJSON) {
	var mu sync.Mutex
	var posted []alert.EventJSON
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev alert.EventJSON
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook got bad JSON: %v", err)
		}
		mu.Lock()
		posted = append(posted, ev)
		mu.Unlock()
	}))
	t.Cleanup(hook.Close)
	return hook.URL, func() []alert.EventJSON {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(posted)
	}
}

// TestRunShutdownDrainsAlerts drives the runtime end to end in-process:
// a rising feed with the alert lifecycle and a webhook enabled, plain EOF
// shutdown. The ordered shutdown's last step drains the alert pipeline,
// so by the time Run returns the webhook must have received every event —
// including those from the final flush — and the ALERTEVENT log lines
// must all precede the summary line.
func TestRunShutdownDrainsAlerts(t *testing.T) {
	hook, events := eventSink(t)
	out := &syncWriter{}
	err := Run(context.Background(), Config{
		Engine: EngineConfig{
			Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 4,
		},
		AlertWarn:    0.5,
		AlertCrit:    4,
		AlertHold:    1,
		AlertWebhook: hook,
	}, strings.NewReader(risingFeed(10)), out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	text := out.String()
	if !strings.Contains(text, "ALERTEVENT ") {
		t.Fatalf("no ALERTEVENT lines in output:\n%s", text)
	}
	sumIdx := strings.Index(text, "# 160 records")
	if sumIdx < 0 {
		t.Fatalf("missing summary line:\n%s", text)
	}
	if last := strings.LastIndex(text, "ALERTEVENT "); last > sumIdx {
		t.Fatalf("ALERTEVENT after the summary line — alert drain did not precede it:\n%s", text)
	}

	posted := events()
	if len(posted) == 0 {
		t.Fatal("webhook received no events before Run returned")
	}
	if got := strings.Count(text, "ALERTEVENT "); len(posted) != got {
		t.Fatalf("webhook received %d events, log sink %d — handlers must see the same stream", len(posted), got)
	}
	var crits int
	for _, ev := range posted {
		if ev.To == "crit" {
			crits++
		}
	}
	if crits == 0 {
		t.Fatalf("rising feed produced no crit escalation; events: %v", posted)
	}
}

// serveNode runs a node with the query API on a loopback port and a pipe
// for stdin, and returns the API's base URL once it is announced.
func serveNode(t *testing.T, cfg Config) (base string, feed *io.PipeWriter, ran <-chan error, out *syncWriter) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	out = &syncWriter{}
	in, feed := io.Pipe()
	t.Cleanup(func() { feed.Close() })
	done := make(chan error, 1)
	go func() { done <- Run(context.Background(), cfg, in, out) }()
	eventually(t, "the API banner", func() bool {
		_, rest, ok := strings.Cut(out.String(), "# serving http on ")
		addr, _, _ := strings.Cut(rest, "\n")
		base = "http://" + addr
		return ok
	})
	return base, feed, done, out
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// getJSON is one GET of url decoded into v; false unless it answered 200.
func getJSON(url string, v any) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(v) == nil
}

// TestRunAlertEventsMidStream: the alert lifecycle read while the stream
// is still open and again after the ordered shutdown, the same on every
// surface — /v1/alerts/events and /metrics mid-stream, the webhook and the
// log sink once Run returns. In the leap case every surface equals a
// manager that observed each snapshot the engine returned, across one
// call that closes hundreds of units.
func TestRunAlertEventsMidStream(t *testing.T) {
	// An engine threshold no slope reaches keeps the exception drill-down
	// empty, so the only alert candidates are o-layer cells.
	engine := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 1000, Shards: 4}
	// requireLogged fails unless the log sink printed exactly these events.
	requireLogged := func(t *testing.T, out string, events []alert.EventJSON) {
		t.Helper()
		var want strings.Builder
		for _, e := range events {
			fmt.Fprintf(&want, "ALERTEVENT seq=%d unit=%d topic=%s cell=%s %s->%s slope=%+.3f\n", e.Seq, e.Unit, e.Topic, e.Cell, e.From, e.To, e.Slope)
		}
		if got := regexp.MustCompile(`(?m)^ALERTEVENT .*\n`).FindAllString(out, -1); strings.Join(got, "") != want.String() {
			t.Fatalf("log sink printed\n%swant\n%s", strings.Join(got, ""), want.String())
		}
	}

	t.Run("slope", func(t *testing.T) {
		hook, posted := eventSink(t)
		base, feed, ran, out := serveNode(t, Config{Engine: engine, AlertWarn: 2, AlertCrit: 5, AlertHold: 2, AlertWebhook: hook})
		// Cell (0,0), slope 10 for units 0-2: one immediate ok->crit at
		// unit 0, then dedup'd silence. Flat from tick 12 on: slope 0, the
		// hold counts units 3 and 4, and the crit->ok recovery fires at
		// unit 4.
		for tick := 0; tick < 28; tick++ {
			fmt.Fprintf(feed, "%d,0,0,%d\n", tick, min(tick, 11)*10)
		}
		var ev query.AlertEventsResponse
		eventually(t, "the recovery on /v1/alerts/events", func() bool {
			return getJSON(base+"/v1/alerts/events", &ev) && slices.ContainsFunc(ev.Events, func(e alert.EventJSON) bool { return e.To == "ok" })
		})
		if ev.Count != 2 || ev.Events[0].To != "crit" || ev.Events[1].To != "ok" {
			t.Fatalf("want one crit, then one recovery (dedup + hold): %+v", ev)
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(metrics), `regcube_alert_events_total{level="crit",topic="olayer"} 1`+"\n") {
			t.Fatalf("/metrics lacks the one crit event:\n%s", metrics)
		}
		feed.Close() // EOF: the ordered shutdown drains the alert pipeline
		if err := <-ran; err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if got := posted(); !reflect.DeepEqual(got, ev.Events) {
			t.Fatalf("webhook received %+v, /v1/alerts/events listed %+v", got, ev.Events)
		}
		requireLogged(t, out.String(), ev.Events)
	})

	t.Run("leap", func(t *testing.T) {
		cfg := Config{Engine: engine, AlertWarn: 2, AlertCrit: 5, AlertHold: 2}
		// Cell (0,0) rises 10/tick through units 0-2: crit at unit 0. Then
		// one record leaps to unit 999, so one call closes units 2-998,
		// 996 of them empty: the hold counts units 3 and 4 and the
		// recovery fires at unit 4. Steep again from there: crit at 999.
		var ticks []int
		for tick := 0; tick < 12; tick++ {
			ticks = append(ticks, tick)
		}
		for tick := 4 * 999; tick < 4*999+12; tick++ {
			ticks = append(ticks, tick)
		}
		// want is what a manager that observed every snapshot the engine
		// returned emits: live, before the final flush, and in all.
		ref, err := cfg.Engine.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		mgr, err := alert.New(alert.Config{Schema: ref.Schema, Warn: cfg.AlertWarn, Crit: cfg.AlertCrit, HoldUnits: cfg.AlertHold})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		for _, tick := range ticks {
			closed, err := ref.Ingest([]int32{0, 0}, int64(tick), float64(tick*10))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range closed {
				mgr.Observe(s)
			}
		}
		events := func() []alert.EventJSON {
			var out []alert.EventJSON
			for _, e := range mgr.Events(0) {
				out = append(out, e.JSON(ref.Schema))
			}
			return out
		}
		wantLive := events()
		last, err := ref.Flush()
		if err != nil {
			t.Fatal(err)
		}
		mgr.Observe(last)
		want := events()
		if len(wantLive) != 3 || wantLive[1].To != "ok" || wantLive[1].Unit != 4 || wantLive[2].Unit != 999 {
			t.Fatalf("the fixture's events moved: %+v", wantLive)
		}

		hook, posted := eventSink(t)
		cfg.AlertWebhook = hook
		base, feed, ran, out := serveNode(t, cfg)
		for _, tick := range ticks {
			fmt.Fprintf(feed, "%d,0,0,%d\n", tick, tick*10)
		}
		var ev query.AlertEventsResponse
		eventually(t, "the live events on /v1/alerts/events", func() bool {
			return getJSON(base+"/v1/alerts/events", &ev) && len(ev.Events) >= len(wantLive)
		})
		if !reflect.DeepEqual(ev.Events, wantLive) {
			t.Fatalf("/v1/alerts/events listed %+v, want %+v", ev.Events, wantLive)
		}
		feed.Close()
		if err := <-ran; err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if got := posted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("webhook received %+v, want %+v", got, want)
		}
		requireLogged(t, out.String(), want)
	})

	t.Run("forecast", func(t *testing.T) {
		hook, posted := eventSink(t)
		// Forecast-only: no AlertCrit, so the slope topics stay silent and
		// every event is the predictive topic. The threshold and horizon
		// are also /v1/forecast's defaults, so it needs no parameters.
		base, feed, ran, out := serveNode(t, Config{Engine: engine, ForecastThreshold: 1000, ForecastHorizon: 8,
			ChangeScore: 0.25, AlertHold: 2, AlertWebhook: hook})
		// Cell (0,0) rises 10/tick toward 1000: at unit 23 (ticks 92-95)
		// the fitted line sits at 950, five ticks from the threshold —
		// inside the 8-tick horizon, so the forecast goes crit while the
		// measured value is still 5% below the line it is forecast to cross.
		for tick := 0; tick < 100; tick++ {
			fmt.Fprintf(feed, "%d,0,0,%d\n", tick, tick*10)
		}
		var fc query.ForecastResponse
		eventually(t, "/v1/forecast to predict the breach", func() bool {
			return getJSON(base+"/v1/forecast?members=0,0", &fc) && fc.WillBreach
		})
		if fc.TicksToThreshold == nil {
			t.Fatalf("forecast without ticksToThreshold: %+v", fc)
		}
		var changes map[string]json.RawMessage
		if !getJSON(base+"/v1/changes", &changes) || changes["cells"] == nil {
			t.Fatalf("/v1/changes answered %s", changes)
		}
		isForecast := func(e alert.EventJSON) bool { return e.Topic == "forecast" }
		var ev query.AlertEventsResponse
		eventually(t, "a forecast event on /v1/alerts/events", func() bool {
			return getJSON(base+"/v1/alerts/events", &ev) && slices.ContainsFunc(ev.Events, isForecast)
		})
		feed.Close()
		if err := <-ran; err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		got := posted()
		if !slices.ContainsFunc(got, isForecast) || slices.ContainsFunc(got, func(e alert.EventJSON) bool { return !isForecast(e) }) {
			t.Fatalf("webhook received %+v, want forecast-topic events only", got)
		}
	})
}

// TestRunAlertsWithoutListen: the alert lifecycle observes the units
// ingest returns, so it needs no -listen and no snapshot publication —
// the rising feed fires events without a listener — and with alerting
// off the same feed fires none.
func TestRunAlertsWithoutListen(t *testing.T) {
	for _, crit := range []float64{4, 0} {
		out := &syncWriter{}
		err := Run(context.Background(), Config{
			Engine:    EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 1},
			AlertCrit: crit,
		}, strings.NewReader(risingFeed(10)), out)
		if err != nil {
			t.Fatal(err)
		}
		if fired := strings.Contains(out.String(), "ALERTEVENT "); fired != (crit > 0) {
			t.Fatalf("alert-crit %g: events fired %v:\n%s", crit, fired, out.String())
		}
	}
}

// TestRunRecordErrorSameAtEveryShardCount: a record whose tick its cell
// already consumed, in the middle of a unit and of a stream of many
// batches, stops the node with the same report and the same error — the
// same record named — at one shard and at two, for text and binary input.
// The error comes back from the batch that carried the record, not from
// the next unit boundary.
func TestRunRecordErrorSameAtEveryShardCount(t *testing.T) {
	const ticksPerUnit, ticks, dupTick = 64, 192, 70
	type record struct {
		tick    int64
		members []int32
		value   float64
	}
	var recs []record
	for tick := int64(0); tick < ticks; tick++ {
		for c := int32(0); c < 16; c++ {
			r := record{tick, []int32{c % 4, c / 4}, float64(tick) * float64(c+1)}
			recs = append(recs, r)
			if tick == dupTick && c == 5 {
				recs = append(recs, r)
			}
		}
	}
	var text strings.Builder
	var binary bytes.Buffer
	w, err := wire.NewWriter(&binary, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 100
	for _, r := range recs {
		fmt.Fprintf(&text, "%d,%d,%d,%g\n", r.tick, r.members[0], r.members[1], r.value)
		if err := w.Append(r.tick, r.members, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for format, feed := range map[string]string{"text": text.String(), "binary": binary.String()} {
		var wantOut, wantErr string
		for _, shards := range []int{1, 2} {
			out := &syncWriter{}
			err := Run(context.Background(), Config{
				Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: ticksPerUnit, Threshold: 0.5, Shards: shards},
			}, strings.NewReader(feed), out)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tick %d already consumed", dupTick)) {
				t.Fatalf("%s shards=%d: %v, want the duplicate tick refused", format, shards, err)
			}
			if shards == 1 {
				wantOut, wantErr = out.String(), err.Error()
				if !strings.Contains(wantOut, "[unit 0]") || strings.Contains(wantOut, "[unit 1]") {
					t.Fatalf("%s: want unit 0 reported and unit 1 not:\n%s", format, wantOut)
				}
				continue
			}
			if err.Error() != wantErr {
				t.Fatalf("%s: shards=2 error %q, shards=1 %q", format, err, wantErr)
			}
			if out.String() != wantOut {
				t.Fatalf("%s: shards=2 printed\n%s\nshards=1\n%s", format, out.String(), wantOut)
			}
		}
	}
}

// TestRunShutdownReleasesParkedFollower: a coordinator's parked
// GET /v1/snapshot?wait= must not hold step 3 of the ordered shutdown for
// its park — Shutdown fires the serving layer's drain signal, the request
// answers 304 at once, and the node is down well inside the park.
func TestRunShutdownReleasesParkedFollower(t *testing.T) {
	base, feed, ran, out := serveNode(t, Config{
		Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 1},
	})
	if _, err := io.WriteString(feed, risingFeed(10)); err != nil { // closes units 0 and 1
		t.Fatal(err)
	}
	eventually(t, "unit 1", func() bool { return strings.Contains(out.String(), "[unit 1]") })
	parked := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/snapshot?after=1&wait=450")
		if err != nil {
			t.Error(err)
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	select {
	case status := <-parked:
		t.Fatalf("request answered %d with nothing newer published", status)
	case <-time.After(50 * time.Millisecond):
	}
	t0 := time.Now()
	feed.Close()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if took := time.Since(t0); took > 200*time.Millisecond {
		t.Fatalf("shutdown with a parked follower took %v", took)
	}
	if status := <-parked; status != http.StatusNotModified {
		t.Fatalf("parked request answered %d, want 304", status)
	}
}
