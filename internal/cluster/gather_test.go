package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/serve"
	"repro/internal/stream"
)

// mirrorNode is one node of the mirror tests: a real engine that owns one
// o-cell of the test schema, served by the real serving layer over real
// HTTP, with the requests the gatherer makes counted on the way in. The
// test goroutine steps it; nothing else touches the engine.
type mirrorNode struct {
	eng  *stream.Engine
	srv  atomic.Pointer[serve.Server] // serves eng; restart replaces both
	ts   *httptest.Server
	cell [2]int32 // an m-cell under this node's o-cell
	unit int64    // last published, -1 before the first

	parkedGets atomic.Int64 // GET /v1/snapshot with a wait
	plainGets  atomic.Int64 // GET /v1/snapshot without
	infoGets   atomic.Int64
	// parkedAfter is the ?after= of the last request with a wait to arrive.
	parkedAfter atomic.Int64
	// hold, while set, keeps snapshot requests from being answered until
	// it is closed.
	hold atomic.Pointer[chan struct{}]
}

func (n *mirrorNode) snapshotGets() int64 { return n.parkedGets.Load() + n.plainGets.Load() }

// step feeds the node's cell one record per tick of the next unit and
// closes it, publishing a snapshot whose history ends at that unit.
func (n *mirrorNode) step(t testing.TB) {
	t.Helper()
	n.unit++
	for k := int64(0); k < 4; k++ {
		tick := n.unit*4 + k
		if _, err := n.eng.Ingest(n.cell[:], tick, float64(tick)*float64(n.cell[0]+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.eng.AdvanceTo(n.unit + 1); err != nil {
		t.Fatal(err)
	}
}

// mirrorCluster is four stepped nodes and a gatherer over them.
type mirrorCluster struct {
	schema *cube.Schema
	nodes  []*mirrorNode
	g      *Gatherer
}

func newMirrorCluster(t *testing.T) *mirrorCluster {
	t.Helper()
	c := &mirrorCluster{schema: testSchema(t)}
	var endpoints []string
	for i := 0; i < 4; i++ {
		eng, err := stream.NewEngine(testConfig(t, c.schema))
		if err != nil {
			t.Fatal(err)
		}
		// O-cell i of the 2×2 o-layer: m-members 2·(i/2) and 2·(i%2).
		n := &mirrorNode{eng: eng, cell: [2]int32{int32(i/2) * 2, int32(i%2) * 2}, unit: -1}
		n.parkedAfter.Store(-2)
		n.srv.Store(serve.New(eng, c.schema))
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/v1/info":
				n.infoGets.Add(1)
			case r.URL.Path == "/v1/snapshot" && r.URL.Query().Get("wait") != "":
				n.parkedGets.Add(1)
				after, _ := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
				n.parkedAfter.Store(after)
			case r.URL.Path == "/v1/snapshot":
				n.plainGets.Add(1)
			}
			if hold := n.hold.Load(); hold != nil && r.URL.Path == "/v1/snapshot" {
				<-*hold
			}
			n.srv.Load().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			n.srv.Load().Drain()
			n.ts.Close()
		})
		c.nodes = append(c.nodes, n)
		endpoints = append(endpoints, n.ts.URL)
	}
	var err error
	if c.g, err = NewGatherer(GatherConfig{Schema: c.schema, Endpoints: endpoints, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	// Registered last, so it runs first: no round outlives the test.
	t.Cleanup(c.g.Close)
	return c
}

// restart replaces the node's engine with a new one restored from its
// checkpoint — what a node process that stops and starts again serves
// under the same address: the same units, another origin.
func (n *mirrorNode) restart(t testing.TB, schema *cube.Schema) {
	t.Helper()
	cp, err := n.eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(testConfig(t, schema))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(cp); err != nil {
		t.Fatal(err)
	}
	n.eng = eng
	n.srv.Swap(serve.New(eng, schema)).Drain()
}

func (c *mirrorCluster) stepAll(t testing.TB) {
	t.Helper()
	for _, n := range c.nodes {
		n.step(t)
	}
}

// checkView fails unless every part of a served view describes the view's
// own unit: each node's cell has a history ending there, under a header
// the nodes agree on. A merge of different units cannot pass.
func (c *mirrorCluster) checkView(t testing.TB, v *stream.Snapshot) {
	t.Helper()
	if v.UnitsDone != v.Unit+1 || v.Interval.Tb != v.Unit*4 || v.Interval.Te != v.Unit*4+3 {
		t.Errorf("view of unit %d has %d units done, interval %+v", v.Unit, v.UnitsDone, v.Interval)
	}
	if len(v.Frames) != len(c.nodes) {
		t.Errorf("view of unit %d has %d cell histories, want %d", v.Unit, len(v.Frames), len(c.nodes))
	}
	for _, f := range v.Frames {
		cell := f.Key()
		pts := v.HistoryOf(cell)
		if last := pts[len(pts)-1].Unit; last != v.Unit {
			t.Errorf("view of unit %d: cell %v ends at unit %d", v.Unit, cell, last)
		}
	}
}

// waitFor polls cond — a millisecond at a time, never longer than the
// park — and fails the test when it stays false.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMirrorNeverServesTornView steps the nodes out of phase under a
// reader that never pauses: whatever it is served is one unit throughout
// and never goes back, and when the nodes meet the view converges.
func TestMirrorNeverServesTornView(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.g.Snapshot(); v != nil {
				c.checkView(t, v)
				if v.Unit < last {
					t.Errorf("view went back from unit %d to %d", last, v.Unit)
				}
				last = v.Unit
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Each node runs ahead of the next by up to three units, in a phase
	// that rotates. The mirror merges when the laggards it re-asks answer
	// with the unit the others hold, which a round does not promise: the
	// rounds go on past the twelfth until the mirror has merged once.
	round := 1
	for ; round <= 12 || c.g.merges.Load() == 0; round++ {
		if round > 200 {
			t.Fatal("200 out-of-phase rounds and no aligned merge")
		}
		for i, n := range c.nodes {
			for n.unit < int64(round*4-(i+round)%4) {
				n.step(t)
				time.Sleep(300 * time.Microsecond)
			}
		}
	}
	final := int64(round*4 - 2)
	for _, n := range c.nodes {
		for n.unit < final {
			n.step(t)
		}
	}
	waitFor(t, fmt.Sprintf("the view to converge on unit %d", final), func() bool {
		v := c.g.Snapshot()
		return v != nil && v.Unit == final
	})
	close(stop)
	reader.Wait()
	if c.g.merges.Load() < 2 {
		t.Fatalf("%d merges: the reader saw no unit change", c.g.merges.Load())
	}
}

// TestRefreshAlignsOnLaggardPublish: a node one unit behind is re-asked
// with a park and answers the moment it publishes the unit the others
// hold. Refresh waits for exactly that — not for a timer, not in vain.
func TestRefreshAlignsOnLaggardPublish(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	for _, n := range c.nodes[:3] {
		n.step(t)
	}
	laggard := c.nodes[3]
	refreshed := make(chan error, 1)
	go func() { refreshed <- c.g.Refresh(context.Background()) }()
	waitFor(t, "the laggard's parked re-ask", func() bool { return laggard.parkedGets.Load() == 1 })
	select {
	case err := <-refreshed:
		t.Fatalf("Refresh returned %v with a node still behind", err)
	case <-time.After(20 * time.Millisecond):
	}
	t0 := time.Now()
	laggard.step(t)
	if err := <-refreshed; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > parkMillis*time.Millisecond/2 {
		t.Fatalf("Refresh returned %v after the laggard's publish", took)
	}
	if v := c.g.view.Load(); v == nil || v.Unit != 1 {
		t.Fatalf("view = %+v, want unit 1", v)
	}
	for i, n := range c.nodes {
		wantParked := int64(0)
		if n == laggard {
			wantParked = 1
		}
		if n.plainGets.Load() != 1 || n.parkedGets.Load() != wantParked || n.infoGets.Load() != 1 {
			t.Fatalf("node %d saw %d plain, %d parked, %d info requests", i, n.plainGets.Load(), n.parkedGets.Load(), n.infoGets.Load())
		}
	}

	// A laggard that stays behind for the whole park leaves the round
	// unaligned: an error from Refresh, and the previous view kept.
	for _, n := range c.nodes[:3] {
		n.step(t)
	}
	if err := c.g.Refresh(context.Background()); !errors.Is(err, errUnaligned) {
		t.Fatalf("Refresh with a stuck laggard = %v, want errUnaligned", err)
	}
	if v := c.g.view.Load(); v.Unit != 1 {
		t.Fatalf("unaligned round moved the view to unit %d", v.Unit)
	}
	if c.g.unaligned.Load() != 1 {
		t.Fatalf("unaligned counter = %d", c.g.unaligned.Load())
	}
}

// TestRefreshBeforeFirstUnit: a node with nothing published fails the
// round by name, and Snapshot stays nil without starting the mirror.
func TestRefreshBeforeFirstUnit(t *testing.T) {
	c := newMirrorCluster(t)
	for _, n := range c.nodes[:3] {
		n.step(t)
	}
	if err := c.g.Refresh(context.Background()); err == nil || !strings.Contains(err.Error(), "no common published unit") {
		t.Fatalf("Refresh = %v", err)
	}
	if v := c.g.Snapshot(); v != nil || c.g.live.Load() {
		t.Fatalf("Snapshot = %+v, mirror live = %v", v, c.g.live.Load())
	}
	if c.g.fetchErrors.Load() != 1 {
		t.Fatalf("fetch errors = %d, want 1", c.g.fetchErrors.Load())
	}
}

// TestMirrorStopsWithoutReaders is the set-up trap as a count. A mirror
// nobody reads stops after one parked round; a burst of a hundred units
// then costs the nodes nothing, and the first read after it returns the
// last unit for one more request per node. The counts repeat exactly.
func TestMirrorStopsWithoutReaders(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	if v := c.g.Snapshot(); v == nil || v.Unit != 0 {
		t.Fatalf("first read = %+v, want unit 0", v)
	}
	// The read revalidated (one plain request per node) and started the
	// loop, whose round parks, is answered 304 and — unread — is the last.
	waitFor(t, "the unread mirror to stop", func() bool { return !c.g.live.Load() })
	for u := 0; u < 100; u++ {
		c.stepAll(t)
	}
	for i, n := range c.nodes {
		if n.plainGets.Load() != 1 || n.parkedGets.Load() != 1 {
			t.Fatalf("node %d saw %d plain and %d parked requests over an unread burst, want 1 and 1",
				i, n.plainGets.Load(), n.parkedGets.Load())
		}
	}
	v := c.g.Snapshot()
	if v == nil || v.Unit != 100 {
		t.Fatalf("first read after the burst = %+v, want unit 100", v)
	}
	c.checkView(t, v)
	for i, n := range c.nodes {
		if n.plainGets.Load() != 2 || n.infoGets.Load() != 0 {
			t.Fatalf("node %d saw %d plain and %d info requests, want 2 and 0", i, n.plainGets.Load(), n.infoGets.Load())
		}
	}
	if got := c.g.rounds[revalidate].Load(); got != 2 {
		t.Fatalf("%d revalidation rounds, want 2", got)
	}
}

// TestMirrorParkedThroughBurst floods the nodes while the mirror's round
// is parked on them and nobody reads: the round ends, unread, after a
// small constant number of requests — it does not chase the flood.
func TestMirrorParkedThroughBurst(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	if v := c.g.Snapshot(); v == nil || v.Unit != 0 {
		t.Fatalf("first read = %+v, want unit 0", v)
	}
	waitFor(t, "the prefetch round to park on every node", func() bool {
		for _, n := range c.nodes {
			if n.parkedGets.Load() == 0 {
				return false
			}
		}
		return true
	})
	for u := 0; u < 100; u++ {
		c.stepAll(t)
	}
	waitFor(t, "the unread mirror to stop", func() bool { return !c.g.live.Load() })
	for i, n := range c.nodes {
		// Revalidation, the parked request, at most one parked re-ask.
		if got := n.snapshotGets(); got < 2 || got > 3 {
			t.Fatalf("node %d saw %d snapshot requests through the burst, want 2 or 3", i, got)
		}
	}
	if v := c.g.Snapshot(); v == nil || v.Unit != 100 {
		t.Fatalf("first read after the burst = %+v, want unit 100", v)
	}
}

// TestMirrorReadsMakeNoRequests: while reads keep the mirror live, units
// reach the view through parked requests alone — the read path's own
// (plain) requests stay at the one revalidation that started it — and
// Refresh, run beside a parked round, does not wait for it.
func TestMirrorReadsMakeNoRequests(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	const units = 10
	c.g.Snapshot() // starts the mirror
	for u := int64(0); u <= units; u++ {
		// The round that follows the merge of unit u is parked on every
		// node; read during it and the loop goes on after it.
		waitFor(t, fmt.Sprintf("a round parked after unit %d", u), func() bool {
			for _, n := range c.nodes {
				if n.parkedAfter.Load() != u {
					return false
				}
			}
			return true
		})
		v := c.g.Snapshot()
		if v == nil || v.Unit != u {
			t.Fatalf("read %d = %+v", u, v)
		}
		c.checkView(t, v)
		if u == units/2 {
			t0 := time.Now()
			if err := c.g.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(t0); took > parkMillis*time.Millisecond/2 {
				t.Fatalf("Refresh beside a parked round took %v", took)
			}
		}
		if u < units {
			c.stepAll(t)
			waitFor(t, fmt.Sprintf("unit %d to reach the view", u+1), func() bool { return c.g.view.Load().Unit == u+1 })
		}
	}
	for i, n := range c.nodes {
		// One revalidation by the first read, one by the Refresh.
		if got := n.plainGets.Load(); got != 2 {
			t.Fatalf("node %d saw %d plain snapshot requests, want 2: reads reached the nodes", i, got)
		}
		if got := n.parkedGets.Load(); got < units || got > 2*units+2 {
			t.Fatalf("node %d saw %d parked requests for %d units", i, got, units)
		}
	}
	if got := c.g.rounds[revalidate].Load(); got != 2 {
		t.Fatalf("%d revalidation rounds, want 2", got)
	}
	if got := c.g.merges.Load(); got != units+1 {
		t.Fatalf("%d merges for %d units", got, units+1)
	}
	var buf bytes.Buffer
	c.g.WriteMetrics(&buf)
	for _, want := range []string{
		`regcube_gather_rounds_total{kind="revalidate"} 2`,
		fmt.Sprintf("regcube_gather_merges_total %d", units+1),
		"regcube_gather_fetch_errors_total 0",
		`regcube_gather_rounds_total{kind="prefetch"} `,
		"regcube_gather_unaligned_total ",
		"regcube_gather_bytes_total ",
		"regcube_gather_fetch_nanos_total ",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, buf.String())
		}
	}
	for i, st := range c.g.Nodes(context.Background()) {
		if !st.Reachable || st.MirrorUnit != units || st.LastFetchMs <= 0 {
			t.Errorf("node %d status = %+v", i, st)
		}
	}
}

// nodesMerged is the merge of the nodes' own latest snapshots: what the
// view of their unit must equal, frames included.
func (c *mirrorCluster) nodesMerged(t testing.TB) *stream.Snapshot {
	t.Helper()
	snaps := make([]*stream.Snapshot, len(c.nodes))
	for i, n := range c.nodes {
		snaps[i] = n.eng.Snapshot()
	}
	m, err := stream.MergeSnapshots(c.schema, snaps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMirrorFollowsWithSuccessors: a mirror that follows the nodes unit by
// unit fetches each node's whole document once and a successor document
// for every unit after, and the frames it rebuilds from them are the
// nodes' own. A node restarted from its checkpoint — same units, a new
// engine run — gets one whole document, then successors again.
func TestMirrorFollowsWithSuccessors(t *testing.T) {
	c := newMirrorCluster(t)
	const units = 12
	follow := func(u int64) {
		t.Helper()
		if err := c.g.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		v := c.g.view.Load()
		if v == nil || v.Unit != u {
			t.Fatalf("view = %+v, want unit %d", v, u)
		}
		if want := c.nodesMerged(t); !reflect.DeepEqual(v.Frames, want.Frames) {
			t.Fatalf("unit %d: the mirrored frames are not the nodes'", u)
		}
	}
	for u := int64(0); u < units; u++ {
		c.stepAll(t)
		follow(u)
	}
	full, successors := c.g.fullDocs.Load(), c.g.successorDocs.Load()
	if full != 4 || successors != 4*(units-1) {
		t.Fatalf("%d full and %d successor documents for %d units of 4 nodes, want 4 and %d", full, successors, units, 4*(units-1))
	}
	c.nodes[2].restart(t, c.schema)
	for u := int64(units); u < 2*units; u++ {
		c.stepAll(t)
		follow(u)
	}
	full, successors = c.g.fullDocs.Load(), c.g.successorDocs.Load()
	if full != 5 || successors != 4*(2*units-1)-1 {
		t.Fatalf("after a restart: %d full and %d successor documents, want 5 and %d", full, successors, 4*(2*units-1)-1)
	}
	var buf bytes.Buffer
	c.g.WriteMetrics(&buf)
	for _, want := range []string{
		`regcube_gather_documents_total{kind="full"} 5` + "\n",
		fmt.Sprintf(`regcube_gather_documents_total{kind="successor"} %d`+"\n", successors),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, buf.String())
		}
	}
}

// TestConcurrentRoundsApplyOneSuccessor runs two rounds at once after
// every unit — a revalidation beside a prefetch, say — and holds the
// nodes' answers until both have asked every node for the successor of
// the part they hold. One of the two answers lands; the other is dropped,
// for the part takes one successor. The view of every unit carries the
// nodes' frames exactly. Run under -race.
func TestConcurrentRoundsApplyOneSuccessor(t *testing.T) {
	c := newMirrorCluster(t)
	ctx := context.Background()
	for u := int64(0); u < 30; u++ {
		c.stepAll(t)
		hold := make(chan struct{})
		asked := make([]int64, len(c.nodes))
		for i, n := range c.nodes {
			asked[i] = n.snapshotGets()
			n.hold.Store(&hold)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = c.g.round(ctx, revalidate)
			}()
		}
		waitFor(t, "both rounds to ask every node", func() bool {
			for i, n := range c.nodes {
				if n.snapshotGets() < asked[i]+2 {
					return false
				}
			}
			return true
		})
		for _, n := range c.nodes {
			n.hold.Store(nil)
		}
		close(hold)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("unit %d: %v", u, err)
			}
		}
		v := c.g.view.Load()
		if v == nil || v.Unit != u {
			t.Fatalf("view = %+v, want unit %d", v, u)
		}
		if want := c.nodesMerged(t); !reflect.DeepEqual(v.Frames, want.Frames) {
			t.Fatalf("unit %d: the mirrored frames are not the nodes'", u)
		}
	}
	// Every answer that landed: each node's first unit whole, the rest as
	// successors.
	if full, successors := c.g.fullDocs.Load(), c.g.successorDocs.Load(); full != 4 || successors != 4*29 {
		t.Fatalf("%d full and %d successor documents landed over 30 units of 4 nodes", full, successors)
	}
}

// TestNodesProbeInParallel: one node that does not answer costs the
// coordinator's /v1/info its own timeout, not that times its position,
// and the other rows are filled.
func TestNodesProbeInParallel(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	endpoints := []string{hung.URL, c.nodes[1].ts.URL, hung.URL, c.nodes[3].ts.URL}
	g, err := NewGatherer(GatherConfig{Schema: c.schema, Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	nodes := g.Nodes(ctx)
	if took := time.Since(t0); took > 190*time.Millisecond {
		t.Fatalf("probing two hung nodes took %v, want one timeout", took)
	}
	for i, st := range nodes {
		if want := i%2 == 1; st.Reachable != want || (st.Info != nil) != want || (st.Error == "") != want {
			t.Fatalf("node %d status = %+v", i, st)
		}
	}
}

// BenchmarkGatherRound times one synchronous round against four nodes
// over loopback HTTP: with a new unit to fetch, decode and merge, and
// with nothing new (four 304s).
func BenchmarkGatherRound(b *testing.B) {
	schema := testSchema(b)
	var engines []*stream.Engine
	var endpoints []string
	for i := 0; i < 4; i++ {
		eng, err := stream.NewEngine(testConfig(b, schema))
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(eng, schema)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Drain()
		engines, endpoints = append(engines, eng), append(endpoints, ts.URL)
	}
	unit := int64(0)
	step := func() {
		// Every node gets the m-cells under its o-cell, then the barrier.
		feedRecords(testConfig(b, schema), 1, false, func(tick int64, members []int32, value float64) {
			if _, err := engines[members[0]/2*2+members[1]/2].Ingest(members, unit*4+tick, value); err != nil {
				b.Fatal(err)
			}
		})
		unit++
		for _, eng := range engines {
			if _, err := eng.AdvanceTo(unit); err != nil {
				b.Fatal(err)
			}
		}
	}
	g, err := NewGatherer(GatherConfig{Schema: schema, Endpoints: endpoints})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	b.Run("new-unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			step()
			b.StartTimer()
			if err := g.round(ctx, revalidate); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("not-modified", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := g.round(ctx, revalidate); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestGatherRefusesDuplicateEndpoint: a coordinator given one node's API
// twice (regcube-router -node-api A,A,C,D) mirrors that node's snapshot
// twice. The merge refuses the overlap, so the coordinator serves no view
// instead of a summary that counts the node's tuples twice.
func TestGatherRefusesDuplicateEndpoint(t *testing.T) {
	c := newMirrorCluster(t)
	c.stepAll(t)
	endpoints := []string{c.nodes[0].ts.URL, c.nodes[0].ts.URL, c.nodes[2].ts.URL, c.nodes[3].ts.URL}
	g, err := NewGatherer(GatherConfig{Schema: c.schema, Endpoints: endpoints, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if err := g.Refresh(context.Background()); err == nil || !strings.Contains(err.Error(), "parts share") {
		t.Fatalf("Refresh over a duplicated endpoint = %v, want a shared-cell refusal", err)
	}
	rec := httptest.NewRecorder()
	serve.New(g, c.schema).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/summary", nil))
	if rec.Code == http.StatusOK {
		t.Fatalf("summary over a duplicated endpoint answered 200: %s", rec.Body.String())
	}
}
