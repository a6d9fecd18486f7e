package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/stream"
)

// snapshotNode is one single-engine node behind a real HTTP server, so
// parked requests park in real handlers. step publishes the next unit
// (closed empty: the protocol only looks at unit numbers).
type snapshotNode struct {
	eng  *stream.Engine
	srv  *Server
	ts   *httptest.Server
	unit int64 // last published
	// parks counts Published calls: a handler that made one is parked (or
	// about to look again and park — either way it misses no publish).
	parks atomic.Int64
}

func (n *snapshotNode) Snapshot() *stream.Snapshot { return n.eng.Snapshot() }

func (n *snapshotNode) Published() <-chan struct{} {
	defer n.parks.Add(1)
	return n.eng.Published()
}

// newSnapshotNode starts a node that has published unit 0 already, or —
// empty — nothing yet.
func newSnapshotNode(t *testing.T, empty bool) *snapshotNode {
	t.Helper()
	schema := testSchema(t)
	eng, err := stream.NewEngine(stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5), PublishSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &snapshotNode{eng: eng, unit: -1}
	n.srv = New(n, schema)
	n.ts = httptest.NewServer(n.srv)
	t.Cleanup(func() {
		n.srv.Drain() // or Close waits out whatever a failed test left parked
		n.ts.Close()
	})
	if !empty {
		n.step(t)
	}
	return n
}

func (n *snapshotNode) step(t testing.TB) {
	t.Helper()
	n.unit++
	if _, err := n.eng.AdvanceTo(n.unit + 1); err != nil {
		t.Fatal(err)
	}
}

// snapshotReply is one finished GET /v1/snapshot.
type snapshotReply struct {
	status int
	unit   int64 // of the decoded body, -1 without one
	took   time.Duration
	ctype  string
}

func (n *snapshotNode) fetch(t testing.TB, query string) snapshotReply {
	t.Helper()
	t0 := time.Now()
	resp, err := http.Get(n.ts.URL + "/v1/snapshot" + query)
	if err != nil {
		t.Error(err)
		return snapshotReply{unit: -1}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	r := snapshotReply{status: resp.StatusCode, unit: -1, took: time.Since(t0), ctype: resp.Header.Get("Content-Type")}
	if resp.StatusCode == http.StatusOK {
		snap, err := stream.DecodeSnapshot(testSchema(t), body)
		if err != nil {
			t.Errorf("GET /v1/snapshot%s: undecodable body: %v", query, err)
			return r
		}
		r.unit = snap.Unit
	}
	return r
}

// parked starts a request and returns the channel its reply arrives on,
// once the handler has taken the publish signal.
func (n *snapshotNode) parked(t *testing.T, query string) <-chan snapshotReply {
	t.Helper()
	before := n.parks.Load()
	done := make(chan snapshotReply, 1)
	go func() { done <- n.fetch(t, query) }()
	deadline := time.Now().Add(5 * time.Second)
	for n.parks.Load() == before {
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/snapshot%s never parked", query)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func TestSnapshotUnconditional(t *testing.T) {
	n := newSnapshotNode(t, false)
	r := n.fetch(t, "")
	if r.status != http.StatusOK || r.unit != 0 || r.ctype != "application/octet-stream" {
		t.Fatalf("GET /v1/snapshot = %+v, want the binary snapshot of unit 0", r)
	}
	// after below the published unit is no condition at all.
	if r := n.fetch(t, "?after=-1&wait=400"); r.status != http.StatusOK || r.unit != 0 || r.took > 200*time.Millisecond {
		t.Fatalf("after=-1 = %+v, want unit 0 at once", r)
	}
	for _, bad := range []string{"?after=x", "?wait=-1", "?wait=soon", "?have=0", "?have=x.1", "?have=0.xyz"} {
		if r := n.fetch(t, bad); r.status != http.StatusBadRequest {
			t.Fatalf("GET /v1/snapshot%s = %d, want 400", bad, r.status)
		}
	}
}

// TestSnapshotSuccessor: ?have=U.O names the snapshot the requester
// holds. The node answers with the successor document exactly when its
// snapshot is the unit after U of origin O, and with the full document
// otherwise: a gap, its own unit, another engine run, or no have at all.
func TestSnapshotSuccessor(t *testing.T) {
	n := newSnapshotNode(t, false)
	held := n.eng.Snapshot()
	n.step(t)
	origin := strconv.FormatUint(held.Origin, 16)
	for query, successor := range map[string]bool{
		"?have=0." + origin:         true,
		"?after=0&have=0." + origin: true,
		"":                          false,
		"?have=-1." + origin:        false,
		"?have=1." + origin:         false,
		"?have=0." + strconv.FormatUint(held.Origin^1, 16): false,
	} {
		resp, err := http.Get(n.ts.URL + "/v1/snapshot" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/snapshot%s = %d, %v", query, resp.StatusCode, err)
		}
		if got := stream.IsSuccessorDocument(body); got != successor {
			t.Fatalf("GET /v1/snapshot%s: successor document %v, want %v", query, got, successor)
		}
		// A record takes one successor: each is applied to a copy of held
		// of its own, not to the one the engine has pushed already.
		var prev *stream.Snapshot
		if successor {
			doc, err := stream.EncodeSnapshot(held)
			if err != nil {
				t.Fatal(err)
			}
			if prev, err = stream.DecodeSnapshot(testSchema(t), doc); err != nil {
				t.Fatal(err)
			}
		}
		if snap, err := stream.DecodeSnapshotAfter(testSchema(t), prev, body); err != nil || snap.Unit != 1 {
			t.Fatalf("GET /v1/snapshot%s: %v", query, err)
		}
	}
}

// TestSnapshotNotModified pins the conditional half: 304 at once without
// a wait, after the wait with one, after the server's cap with a long one.
func TestSnapshotNotModified(t *testing.T) {
	n := newSnapshotNode(t, false)
	for _, after := range []int64{0, 7} {
		if r := n.fetch(t, fmt.Sprintf("?after=%d", after)); r.status != http.StatusNotModified || r.took > 200*time.Millisecond {
			t.Fatalf("after=%d = %+v, want 304 at once", after, r)
		}
	}
	if r := n.fetch(t, "?after=0&wait=60"); r.status != http.StatusNotModified || r.took < 60*time.Millisecond || r.took > 400*time.Millisecond {
		t.Fatalf("wait=60 = %+v, want 304 after the wait", r)
	}
	if r := n.fetch(t, "?after=0&wait=60000"); r.status != http.StatusNotModified || r.took < maxPark || r.took > maxPark+400*time.Millisecond {
		t.Fatalf("wait=60000 = %+v, want 304 after the %v cap", r, maxPark)
	}
}

// TestSnapshotParkAnsweredByPublish: a parked request is answered by the
// next publish — at once, with that unit — and by nothing else.
func TestSnapshotParkAnsweredByPublish(t *testing.T) {
	n := newSnapshotNode(t, false)
	done := n.parked(t, "?after=0&wait=450")
	// Other traffic on the server is not a publish.
	n.fetch(t, "")
	n.fetch(t, "?after=0")
	if resp, err := http.Get(n.ts.URL + "/v1/info"); err == nil {
		resp.Body.Close()
	}
	select {
	case r := <-done:
		t.Fatalf("parked request answered %+v before any publish", r)
	case <-time.After(50 * time.Millisecond):
	}
	t0 := time.Now()
	n.step(t)
	r := <-done
	if r.status != http.StatusOK || r.unit != 1 || time.Since(t0) > 200*time.Millisecond {
		t.Fatalf("parked request = %+v, %v after the publish; want unit 1 at once", r, time.Since(t0))
	}
}

// TestSnapshotPublishRacingPark loops the race the park must win: the
// publish lands while the handler is between its first look and its wait.
// Losing it once would show as a 304 after the full wait.
func TestSnapshotPublishRacingPark(t *testing.T) {
	n := newSnapshotNode(t, false)
	for i := 0; i < 100; i++ {
		after := n.unit
		done := make(chan snapshotReply, 1)
		go func() { done <- n.fetch(t, fmt.Sprintf("?after=%d&wait=450", after)) }()
		if i%2 == 1 {
			time.Sleep(time.Duration(i) * 5 * time.Microsecond)
		}
		n.step(t)
		if r := <-done; r.status != http.StatusOK || r.unit != after+1 || r.took > 300*time.Millisecond {
			t.Fatalf("round %d: %+v, want unit %d without waiting out the park", i, r, after+1)
		}
	}
}

// TestSnapshotParkedBurst: units closing faster than a parked follower is
// scheduled never wait on it, and the follower gets a unit of the burst,
// not a timeout.
func TestSnapshotParkedBurst(t *testing.T) {
	n := newSnapshotNode(t, false)
	done := n.parked(t, "?after=0&wait=450")
	for i := 0; i < 100; i++ {
		n.step(t)
	}
	if r := <-done; r.status != http.StatusOK || r.unit < 1 || r.unit > 100 {
		t.Fatalf("parked through a burst = %+v", r)
	}
}

// TestSnapshotDrain: the drain signal answers parked requests now and
// keeps later ones from parking.
func TestSnapshotDrain(t *testing.T) {
	n := newSnapshotNode(t, false)
	done := n.parked(t, "?after=0&wait=450")
	t0 := time.Now()
	n.srv.Drain()
	n.srv.Drain() // idempotent
	if r := <-done; r.status != http.StatusNotModified || time.Since(t0) > 200*time.Millisecond {
		t.Fatalf("drained request = %+v after %v, want 304 at once", r, time.Since(t0))
	}
	if r := n.fetch(t, "?after=0&wait=450"); r.status != http.StatusNotModified || r.took > 200*time.Millisecond {
		t.Fatalf("request after the drain = %+v, want 304 at once", r)
	}
}

// plainSource is a Source without Published, as the coordinator's is.
type plainSource struct{ snap *stream.Snapshot }

func (p plainSource) Snapshot() *stream.Snapshot { return p.snap }

func TestSnapshotWaitWithoutBusJustAnswers(t *testing.T) {
	n := newSnapshotNode(t, false)
	srv := New(plainSource{n.eng.Snapshot()}, testSchema(t))
	t0 := time.Now()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/snapshot?after=0&wait=450", nil))
	if rec.Code != http.StatusNotModified || time.Since(t0) > 200*time.Millisecond {
		t.Fatalf("status %d after %v, want 304 at once", rec.Code, time.Since(t0))
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/snapshot?wait=450", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unconditional status %d", rec.Code)
	}
}

// TestSnapshotBeforeFirstUnit: nothing published is 503 — at once, or
// after the wait — and a first publish answers a parked request.
func TestSnapshotBeforeFirstUnit(t *testing.T) {
	n := newSnapshotNode(t, true)
	if r := n.fetch(t, "?after=-1"); r.status != http.StatusServiceUnavailable {
		t.Fatalf("empty node = %+v, want 503", r)
	}
	if r := n.fetch(t, "?after=-1&wait=40"); r.status != http.StatusServiceUnavailable || r.took < 40*time.Millisecond {
		t.Fatalf("empty node with a wait = %+v, want 503 after it", r)
	}
	done := n.parked(t, "?after=-1&wait=450")
	n.step(t)
	if r := <-done; r.status != http.StatusOK || r.unit != 0 {
		t.Fatalf("first publish = %+v, want unit 0", r)
	}
}

func TestMetricsExtraFamilies(t *testing.T) {
	srv, _, _ := testServer(t, 1, 1)
	srv.SetMetrics(func(w io.Writer) { fmt.Fprintln(w, "regcube_gather_merges_total 7") })
	rec := get(t, srv, "/metrics", nil)
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	last := ""
	for sc.Scan() {
		last = sc.Text()
	}
	if last != "regcube_gather_merges_total 7" {
		t.Fatalf("/metrics ends with %q", last)
	}
}
