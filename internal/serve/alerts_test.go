package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
)

// alertServer builds a sharded engine with the alert lifecycle observing
// every snapshot it returns, ingests `units` full units of rising values
// (every cell escalates), and returns a Server with both alert surfaces
// attached.
func alertServer(t *testing.T, units int) (*Server, *alert.Manager) {
	t.Helper()
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
		Shards:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	mgr, err := alert.New(alert.Config{Schema: schema, Warn: 0.5, Crit: 4, HoldUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	for tick := int64(0); tick <= int64(4*units); tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				v := float64(tick) * float64(a+2*b+1)
				closed, err := eng.Ingest([]int32{a, b}, tick, v)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range closed {
					mgr.Observe(s)
				}
			}
		}
	}
	srv := New(eng, schema)
	srv.SetAlerts(mgr)
	return srv, mgr
}

func TestAlertEventsEndpoint(t *testing.T) {
	srv, mgr := alertServer(t, 3)
	var resp query.AlertEventsResponse
	get(t, srv, "/v1/alerts/events", &resp)
	if resp.Count == 0 || resp.Count != len(resp.Events) {
		t.Fatalf("count = %d with %d events, want a consistent non-empty list", resp.Count, len(resp.Events))
	}
	if want := len(mgr.Events(0)); resp.Count != want {
		t.Fatalf("endpoint returned %d events, manager ring holds %d", resp.Count, want)
	}
	prev := int64(0)
	for _, e := range resp.Events {
		if e.Seq <= prev {
			t.Fatalf("event seqs not strictly increasing: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
		if e.Topic != alert.TopicOLayer && e.Topic != alert.TopicDrillDown {
			t.Fatalf("event %d has unknown topic %q", e.Seq, e.Topic)
		}
		if e.To == e.From {
			t.Fatalf("event %d is not a transition: %s -> %s", e.Seq, e.From, e.To)
		}
		if e.Cell == "" || e.Cuboid == "" || len(e.Levels) == 0 || len(e.Members) == 0 {
			t.Fatalf("event %d missing cell identity: %+v", e.Seq, e)
		}
	}

	// ?k= caps the list at the newest k events.
	var capped query.AlertEventsResponse
	get(t, srv, "/v1/alerts/events?k=1", &capped)
	if capped.Count != 1 || capped.Events[0].Seq != prev {
		t.Fatalf("k=1 returned %d events ending at seq %d, want just seq %d",
			capped.Count, capped.Events[0].Seq, prev)
	}
}

func TestAlertEventsNotConfigured(t *testing.T) {
	srv, _, _ := testServer(t, 2, 2)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/alerts/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unconfigured node answered %d, want 404", rec.Code)
	}
}

func TestMetricsIncludeAlertFamilies(t *testing.T) {
	srv, _ := alertServer(t, 3)
	rec := get(t, srv, "/metrics", nil)
	body := rec.Body.String()
	for _, want := range []string{
		`regcube_alert_events_total{level="ok",topic="olayer"} `,
		`regcube_alert_events_total{level="warn",topic="drill"} `,
		`regcube_alert_events_total{level="crit",topic="olayer"} `,
		"regcube_alert_handler_retries_total 0",
		"regcube_alert_handler_drops_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// The escalations the rising feed produced must be counted somewhere
	// in the events family.
	if strings.Count(body, "regcube_alert_events_total") != len(alert.Levels)*len(alert.Topics) {
		t.Fatalf("events family must render every level x topic cell:\n%s", body)
	}
}

func TestMetricsOmitAlertFamiliesWhenUnconfigured(t *testing.T) {
	srv, _, _ := testServer(t, 2, 2)
	rec := get(t, srv, "/metrics", nil)
	if strings.Contains(rec.Body.String(), "regcube_alert_") {
		t.Fatalf("unconfigured node rendered alert metrics:\n%s", rec.Body.String())
	}
}
