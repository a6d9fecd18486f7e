package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/alert"
	"repro/internal/exception"
	"repro/internal/serve"
	"repro/internal/stream"
)

// alertTestServer runs an engine with the alert lifecycle observing every
// snapshot it returns (a rising feed, so cells escalate) and returns a
// client for the HTTP server with the alert surfaces attached.
func alertTestServer(t *testing.T) (*client.Client, *httptest.Server) {
	t.Helper()
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
	mgr, err := alert.New(alert.Config{Schema: schema, Warn: 0.5, Crit: 4, HoldUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	for tick := int64(0); tick <= 12; tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				closed, err := eng.Ingest([]int32{a, b}, tick, float64(tick)*float64(a+2*b+1))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range closed {
					mgr.Observe(s)
				}
			}
		}
	}
	srv := serve.New(eng, schema)
	srv.SetAlerts(mgr)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := client.New(client.WithEndpoints(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

// TestClientAlertEventsMatchesGET pins the typed method to the GET
// endpoint: same body, same types.
func TestClientAlertEventsMatchesGET(t *testing.T) {
	c, ts := alertTestServer(t)
	got, err := c.AlertEvents(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count == 0 || got.Count != len(got.Events) {
		t.Fatalf("events = %+v, want a consistent non-empty list", got)
	}
	var want client.AlertEventsResponse
	getJSON(t, ts, "/v1/alerts/events", &want)
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("client AlertEvents = %+v\nGET body = %+v", *got, want)
	}
	capped, err := c.AlertEvents(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Count != 1 || capped.Events[0].Seq != got.Events[len(got.Events)-1].Seq {
		t.Fatalf("k=1 = %+v, want just the newest event", capped)
	}
}

// TestClientAlertEventsNotConfigured maps the unconfigured node's 404 to
// the ErrNotFound sentinel.
func TestClientAlertEventsNotConfigured(t *testing.T) {
	c, _ := testServer(t, 2, nil)
	_, err := c.AlertEvents(context.Background(), 0)
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
