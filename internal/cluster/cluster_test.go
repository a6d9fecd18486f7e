package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wire"
)

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

func testConfig(t testing.TB, schema *cube.Schema) stream.Config {
	t.Helper()
	return stream.Config{
		Schema:           schema,
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
	}
}

// testNode is one in-process ingest node: an engine fed from a real TCP
// listener speaking RGCWIRE1 (batches and advance barriers), with the
// query API on an HTTP test server — the same wiring as a streamd
// process, without the subprocess.
type testNode struct {
	eng *stream.Engine
	ln  net.Listener
	ts  *httptest.Server
	// drained closes when the ingest connection reached EOF, after which
	// the engine is quiescent and safe to touch from the test goroutine.
	drained chan struct{}
}

func startNode(t *testing.T, cfg stream.Config, id string) *testNode {
	t.Helper()
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{eng: eng, ln: ln, drained: make(chan struct{})}
	srv := serve.New(eng, cfg.Schema)
	srv.SetInfo(func() query.InfoResponse {
		return query.InfoResponse{
			NodeID:      id,
			Role:        "node",
			Shards:      1,
			WireVersion: wire.Version,
			APIVersion:  query.APIVersion,
		}
	})
	n.ts = httptest.NewServer(srv)
	t.Cleanup(n.ts.Close)
	t.Cleanup(func() { ln.Close() })
	go func() {
		defer close(n.drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r, err := wire.NewReader(conn)
		if err != nil {
			t.Errorf("node %s: reader: %v", id, err)
			return
		}
		var b wire.Batch
		for {
			_, c, isCtrl, err := r.NextAny(&b)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("node %s: decode: %v", id, err)
				return
			}
			if isCtrl {
				if _, err := eng.AdvanceTo(c.Unit); err != nil {
					t.Errorf("node %s: advance: %v", id, err)
					return
				}
				continue
			}
			if _, err := eng.IngestBatch(&b); err != nil {
				t.Errorf("node %s: ingest: %v", id, err)
				return
			}
		}
	}()
	return n
}

// feedRecords yields the deterministic test stream: `units` full units
// plus, when spill is true, one record of the following unit (the
// boundary trigger), tick-major over every m-cell.
func feedRecords(cfg stream.Config, units int, spill bool, emit func(tick int64, members []int32, value float64)) {
	for u := 0; u < units; u++ {
		for k := 0; k < cfg.TicksPerUnit; k++ {
			tick := int64(u*cfg.TicksPerUnit + k)
			for a := int32(0); a < 4; a++ {
				for b := int32(0); b < 4; b++ {
					emit(tick, []int32{a, b}, float64(tick)*float64(a+1)*0.5+float64(b))
				}
			}
		}
	}
	if spill {
		emit(int64(units*cfg.TicksPerUnit), []int32{0, 0}, 1)
	}
}

// TestClusterMatchesSingleEngine is the tentpole guarantee end to end,
// in-process: a 4-node cluster — router over real TCP, per-node engines,
// scatter-gather coordinator over real HTTP — must answer queries
// byte-identically to a single engine fed the same stream, and its
// merged checkpoint must be bitwise-identical to the single engine's.
func TestClusterMatchesSingleEngine(t *testing.T) {
	schema := testSchema(t)
	cfg := testConfig(t, schema)
	const units = 3

	// Reference: one engine, one server, over the whole stream.
	single, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedRecords(cfg, units, true, func(tick int64, members []int32, value float64) {
		if _, err := single.Ingest(members, tick, value); err != nil {
			t.Fatal(err)
		}
	})
	singleTS := httptest.NewServer(serve.New(single, schema))
	defer singleTS.Close()

	// The cluster: 4 nodes, a router streaming columnar batches over
	// TCP, and a coordinator gathering over HTTP.
	const numNodes = 4
	nodes := make([]*testNode, numNodes)
	addrs := make([]string, numNodes)
	endpoints := make([]string, numNodes)
	for i := range nodes {
		nodes[i] = startNode(t, cfg, fmt.Sprintf("node-%d", i))
		addrs[i] = nodes[i].ln.Addr().String()
		endpoints[i] = nodes[i].ts.URL
	}
	router, err := NewRouter(RouterConfig{
		Schema:       schema,
		Nodes:        addrs,
		TicksPerUnit: cfg.TicksPerUnit,
		BatchRecords: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Ship the stream as columnar batches of a size that never aligns
	// with unit boundaries, so RouteBatch's mid-batch segmentation and
	// barrier path both run.
	var batch wire.Batch
	batch.Reset(len(schema.Dims))
	flushBatch := func() {
		if batch.Len() == 0 {
			return
		}
		if err := router.RouteBatch(ctx, &batch); err != nil {
			t.Fatal(err)
		}
		batch.Reset(len(schema.Dims))
	}
	feedRecords(cfg, units, true, func(tick int64, members []int32, value float64) {
		batch.Append(tick, members, value)
		if batch.Len() == 7 {
			flushBatch()
		}
	})
	flushBatch()
	if err := router.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := router.Stats()
	if st.Advances != units {
		t.Fatalf("router made %d advances, want %d", st.Advances, units)
	}
	var total int64
	busy := 0
	for _, n := range st.Records {
		if n > 0 {
			busy++
		}
		total += n
	}
	// The 4 o-cells of this schema hash onto at least two nodes; nodes
	// that receive nothing still close units at the barriers and must
	// merge cleanly — the harder half of the guarantee.
	if busy < 2 {
		t.Fatalf("records all landed on one node: %v", st.Records)
	}
	if want := int64(units*cfg.TicksPerUnit*16 + 1); total != want {
		t.Fatalf("router shipped %d records, want %d", total, want)
	}

	// Coordinator: gather the nodes into one serve.Source.
	gatherer, err := NewGatherer(GatherConfig{
		Schema: schema, Endpoints: endpoints, NodeID: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gatherer.Close()
	coordSrv := serve.New(gatherer, schema)
	coordSrv.SetInfo(gatherer.Info)
	coordTS := httptest.NewServer(coordSrv)
	defer coordTS.Close()

	// The merged snapshot must align on the last closed unit and carry
	// exactly the single engine's analyst-visible state.
	deadline := time.Now().Add(10 * time.Second)
	var merged *stream.Snapshot
	for {
		if merged = gatherer.Snapshot(); merged != nil && merged.Unit == units-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never published unit %d (got %+v)", units-1, merged)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := single.Snapshot()
	if want == nil || want.Unit != merged.Unit {
		t.Fatalf("single engine at %+v, cluster at unit %d", want, merged.Unit)
	}
	if !slices.Equal(merged.Result.OCells(), want.Result.OCells()) ||
		!slices.Equal(merged.Result.ExceptionCells(), want.Result.ExceptionCells()) ||
		!reflect.DeepEqual(merged.Alerts, want.Alerts) ||
		!reflect.DeepEqual(merged.Frames, want.Frames) {
		t.Fatal("merged cluster snapshot differs from single engine")
	}

	// Scatter-gather queries must be byte-identical to the single
	// engine's. Summary is excluded by design: its wall-clock stats
	// max-merge across nodes (DESIGN.md §12).
	for _, body := range []string{
		`{"queries":[{"kind":"exceptions","k":16}]}`,
		`{"queries":[{"kind":"alerts"}]}`,
		`{"queries":[{"kind":"slice","dim":0,"member":1,"k":8}]}`,
		`{"queries":[{"kind":"trend","cell":{"members":[1,0]},"k":3}]}`,
		`{"queries":[{"kind":"supporters","cell":{"members":[0,0]},"k":8}]}`,
		`{"queries":[{"kind":"exceptions","k":4},{"kind":"alerts"}]}`,
		`{"queries":[{"kind":"forecast","cell":{"members":[1,0]},"horizon":8,"threshold":40}]}`,
		`{"queries":[{"kind":"changes","k":4}]}`,
	} {
		wantResp := postQuery(t, singleTS.URL, body)
		gotResp := postQuery(t, coordTS.URL, body)
		if !bytes.Equal(gotResp, wantResp) {
			t.Errorf("query %s diverges:\ncluster: %s\nsingle:  %s", body, gotResp, wantResp)
		}
	}

	// The GET shims of the predictive kinds must also match byte for
	// byte — the coordinator serves them from the merged snapshot.
	for _, path := range []string{
		"/v1/forecast?members=1,0&horizon=8&threshold=40",
		"/v1/forecast?members=0,1&k=2&horizon=16",
		"/v1/changes?k=4",
	} {
		wantResp := getBytes(t, singleTS.URL+path)
		gotResp := getBytes(t, coordTS.URL+path)
		if !bytes.Equal(gotResp, wantResp) {
			t.Errorf("GET %s diverges:\ncluster: %s\nsingle:  %s", path, gotResp, wantResp)
		}
	}

	// The coordinator's info document reports the whole cluster.
	var info query.InfoResponse
	getJSON(t, coordTS.URL+"/v1/info", &info)
	if info.Role != "coordinator" || info.Shards != numNodes || info.NodeID != "coord" {
		t.Fatalf("coordinator info = %+v", info)
	}
	if len(info.Nodes) != numNodes {
		t.Fatalf("coordinator reports %d nodes, want %d", len(info.Nodes), numNodes)
	}
	for i, ns := range info.Nodes {
		if !ns.Reachable || ns.Info == nil || ns.Info.NodeID != fmt.Sprintf("node-%d", i) {
			t.Fatalf("node %d status = %+v", i, ns)
		}
	}
	if info.SnapshotUnit != units-1 {
		t.Fatalf("coordinator snapshot unit = %d, want %d", info.SnapshotUnit, units-1)
	}

	// Tear the stream down and compare checkpoints bitwise: per-node
	// files merged with MergeCheckpoints must equal the single engine's
	// checkpoint byte for byte.
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	files := make([]io.Reader, numNodes)
	for i, n := range nodes {
		select {
		case <-n.drained:
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d never drained", i)
		}
		if _, err := n.eng.Flush(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		writeCheckpoint(t, &buf, n.eng)
		files[i] = &buf
	}
	if _, err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	var singleCP bytes.Buffer
	writeCheckpoint(t, &singleCP, single)
	mergedCP, err := MergeCheckpoints(files)
	if err != nil {
		t.Fatal(err)
	}
	var mergedBuf bytes.Buffer
	if err := persist.WriteCheckpoint(&mergedBuf, mergedCP); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBuf.Bytes(), singleCP.Bytes()) {
		t.Fatalf("merged cluster checkpoint is not bitwise-identical to the single engine's (%d vs %d bytes)",
			mergedBuf.Len(), singleCP.Len())
	}
}

func postQuery(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", body, resp.StatusCode, data)
	}
	return data
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// flakyConn fails every write once a fuse burns, then refuses forever;
// the next dial gets a fresh conn. Decoded together, the per-connection
// sinks reconstruct what the node actually received.
type flakySink struct {
	mu    sync.Mutex
	conns []*bytes.Buffer
	// failAt burns the fuse after this many successful writes on the
	// first connection (0 = never).
	failAt int
	writes int
}

type flakyConn struct {
	s    *flakySink
	buf  *bytes.Buffer
	dead bool
	// first marks the connection the fuse applies to.
	first bool
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.dead {
		return 0, fmt.Errorf("connection reset")
	}
	if c.first && c.s.failAt > 0 && c.s.writes >= c.s.failAt {
		c.dead = true
		return 0, fmt.Errorf("connection reset")
	}
	c.s.writes++
	return c.buf.Write(p)
}

func (c *flakyConn) Close() error { return nil }

func (s *flakySink) dial(context.Context, string) (io.WriteCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := &bytes.Buffer{}
	s.conns = append(s.conns, buf)
	return &flakyConn{s: s, buf: buf, first: len(s.conns) == 1}, nil
}

// routeOne routes one record as a one-record batch.
func routeOne(r *Router, tick int64, members []int32, value float64) error {
	var b wire.Batch
	b.Reset(len(members))
	b.Append(tick, members, value)
	return r.RouteBatch(context.Background(), &b)
}

// TestRouterReconnects proves a mid-stream connection failure is
// survived: the router re-dials with a fresh stream header and re-sends
// the failed operation, losing nothing when batches are unbuffered.
func TestRouterReconnects(t *testing.T) {
	schema := testSchema(t)
	sink := &flakySink{failAt: 5}
	router, err := NewRouter(RouterConfig{
		Schema:       schema,
		Nodes:        []string{"sink:0"},
		TicksPerUnit: 4,
		BatchRecords: 1, // flush every record: nothing buffered to lose
		Dial:         sink.dial,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const records = 20
	for i := 0; i < records; i++ {
		if err := routeOne(router, int64(i), []int32{int32(i % 4), 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	if got := router.Stats().Reconnects; got == 0 {
		t.Fatal("no reconnect recorded")
	}
	if len(sink.conns) < 2 {
		t.Fatalf("sink saw %d connections, want at least 2", len(sink.conns))
	}
	var total, advances int
	for i, buf := range sink.conns {
		if buf.Len() == 0 {
			continue
		}
		r, err := wire.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		var b wire.Batch
		for {
			n, _, isCtrl, err := r.NextAny(&b)
			if err == io.EOF {
				break
			}
			// The final frame of the failed connection may be torn —
			// exactly what the node-side decoder tolerates per
			// connection.
			if err != nil {
				break
			}
			if isCtrl {
				advances++
			} else {
				total += n
			}
		}
	}
	if total != records {
		t.Fatalf("sink decoded %d records, want %d", total, records)
	}
	if advances != (records-1)/4 {
		t.Fatalf("sink decoded %d advances, want %d", advances, (records-1)/4)
	}
}

// TestRouterBatchResumesAfterReconnect kills a node's connection in the
// middle of a segment's selection: the retry must resume at the first
// record the dead writer had not accepted. With every record flushed on
// its own nothing may be lost or doubled; with records batched, what the
// dead connection had buffered is lost with it (at most once per
// connection) and still nothing arrives twice.
func TestRouterBatchResumesAfterReconnect(t *testing.T) {
	schema := testSchema(t)
	const records = 48
	for _, tc := range []struct {
		name         string
		batchRecords int
		failAt       int // successful writes on the first connection, header included
		maxLost      int
	}{
		{"unbuffered", 1, 11, 0},
		{"batched", 5, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &flakySink{failAt: tc.failAt}
			router, err := NewRouter(RouterConfig{
				Schema:       schema,
				Nodes:        []string{"sink:0"},
				TicksPerUnit: records,
				BatchRecords: tc.batchRecords,
				Dial:         sink.dial,
				Backoff:      time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			// One segment: every record in unit 0, its value its identity.
			var b wire.Batch
			b.Reset(2)
			for i := 0; i < records; i++ {
				b.Append(int64(i), []int32{int32(i % 4), int32(i / 4 % 4)}, float64(i))
			}
			if err := router.RouteBatch(context.Background(), &b); err != nil {
				t.Fatal(err)
			}
			if err := router.Close(); err != nil {
				t.Fatal(err)
			}
			if got := router.Stats(); got.Reconnects != 1 || got.Records[0] != records {
				t.Fatalf("stats %+v, want 1 reconnect and %d records", got, records)
			}
			seen := make(map[float64]int)
			for i, buf := range sink.conns {
				r, err := wire.NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("conn %d: %v", i, err)
				}
				var got wire.Batch
				for {
					if _, err := r.Next(&got); err != nil {
						break // end of the connection, torn or clean
					}
					for _, v := range got.Values {
						seen[v]++
					}
				}
			}
			lost := 0
			last := -1.0
			for i := 0; i < records; i++ {
				switch seen[float64(i)] {
				case 0:
					lost++
				case 1:
					last = float64(i)
				default:
					t.Fatalf("record %d delivered %d times", i, seen[float64(i)])
				}
			}
			if lost > tc.maxLost || (tc.maxLost > 0 && lost == 0) {
				t.Fatalf("%d records lost, want at most %d (and the dead connection's buffer gone)", lost, tc.maxLost)
			}
			if last != records-1 {
				t.Fatalf("last record delivered is %v: the retry did not finish the selection", last)
			}
		})
	}
}

// TestRouterRejects pins the router's config and record failure modes.
func TestRouterRejects(t *testing.T) {
	schema := testSchema(t)
	if _, err := NewRouter(RouterConfig{Schema: schema, TicksPerUnit: 4}); err == nil {
		t.Fatal("no nodes accepted")
	}
	if _, err := NewRouter(RouterConfig{Schema: schema, Nodes: []string{"x"}}); err == nil {
		t.Fatal("zero ticks-per-unit accepted")
	}
	if _, err := NewRouter(RouterConfig{Nodes: []string{"x"}, TicksPerUnit: 4}); err == nil {
		t.Fatal("nil schema accepted")
	}
	sink := &flakySink{}
	r, err := NewRouter(RouterConfig{
		Schema: schema, Nodes: []string{"sink:0"}, TicksPerUnit: 4, Dial: sink.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := routeOne(r, 9, []int32{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := routeOne(r, 1, []int32{0, 0}, 1); err == nil {
		t.Fatal("regressing tick accepted")
	}
	if err := routeOne(r, 9, []int32{0}, 1); err == nil {
		t.Fatal("wrong dimension count accepted")
	}
	if err := routeOne(r, 10, []int32{0, 99}, 1); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

// TestMergeCheckpointsRejectsSkew proves checkpoints cut at different
// stream positions refuse to merge.
func TestMergeCheckpointsRejectsSkew(t *testing.T) {
	schema := testSchema(t)
	cfg := testConfig(t, schema)
	a, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest([]int32{0, 0}, 9, 1); err != nil { // unit 2 open
		t.Fatal(err)
	}
	if _, err := b.Ingest([]int32{0, 0}, 1, 1); err != nil { // unit 0 open
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	writeCheckpoint(t, &bufA, a)
	writeCheckpoint(t, &bufB, b)
	if _, err := MergeCheckpoints([]io.Reader{&bufA, &bufB}); err == nil {
		t.Fatal("unit-skewed checkpoints merged")
	}
	if _, err := MergeCheckpoints(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
}

// TestMergeCheckpointsIgnoresNodeWatermarks: WAL-backed nodes stamp the
// record count of their own logs, so partitions of unequal size carry
// different watermarks at the same unit; they must merge, and the merged
// file — which belongs to no log — carries watermark 0.
func TestMergeCheckpointsIgnoresNodeWatermarks(t *testing.T) {
	cfg := testConfig(t, testSchema(t))
	var files []io.Reader
	for node, records := range []int64{3, 1} {
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tick := int64(0); tick < records; tick++ {
			if _, err := eng.Ingest([]int32{int32(node), 0}, tick, 1); err != nil {
				t.Fatal(err)
			}
		}
		eng.SetWALSeq(records)
		var buf bytes.Buffer
		writeCheckpoint(t, &buf, eng)
		files = append(files, &buf)
	}
	cp, err := MergeCheckpoints(files)
	if err != nil {
		t.Fatalf("nodes at one unit with watermarks 3 and 1 refused to merge: %v", err)
	}
	if cp.WALSeq != 0 || len(cp.Cells) != 2 {
		t.Fatalf("merged checkpoint: watermark %d, %d cells; want 0 and 2", cp.WALSeq, len(cp.Cells))
	}
}

// TestMergeCheckpointsRejectsSchemaMismatch: files of different cubes at
// the same unit must not merge under the first one's schema.
func TestMergeCheckpointsRejectsSchemaMismatch(t *testing.T) {
	var files []io.Reader
	for _, fanout := range []int{2, 3} {
		ha, _ := cube.NewFanoutHierarchy("A", fanout, 2)
		hb, _ := cube.NewFanoutHierarchy("B", fanout, 2)
		schema, err := cube.NewSchema(
			cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
			cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := stream.NewEngine(testConfig(t, schema))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		writeCheckpoint(t, &buf, eng)
		files = append(files, &buf)
	}
	if _, err := MergeCheckpoints(files); err == nil {
		t.Fatal("fanout-2 and fanout-3 checkpoints merged")
	}
}

// discardSink is a no-op dialer for throughput benchmarks: routing and
// wire encoding run for real, writes vanish.
type discardSink struct{}

func (discardSink) Write(p []byte) (int, error) { return len(p), nil }
func (discardSink) Close() error                { return nil }

// benchmarkRouter measures end-to-end routing throughput — partition
// fold, per-node batch building, frame encoding, barrier broadcast — at
// a given node count, with network writes discarded.
func benchmarkRouter(b *testing.B, numNodes int) {
	schema := testSchema(b)
	const ticksPerUnit = 64
	router, err := NewRouter(RouterConfig{
		Schema:       schema,
		Nodes:        make([]string, numNodes),
		TicksPerUnit: ticksPerUnit,
		Dial: func(context.Context, string) (io.WriteCloser, error) {
			return discardSink{}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// One unit of records per op, pre-built as columnar batches.
	var batches []*wire.Batch
	cur := &wire.Batch{}
	cur.Reset(len(schema.Dims))
	records := 0
	for k := 0; k < ticksPerUnit; k++ {
		for a := int32(0); a < 4; a++ {
			for c := int32(0); c < 4; c++ {
				cur.Append(int64(k), []int32{a, c}, float64(k)*0.5)
				records++
				if cur.Len() == 512 {
					batches = append(batches, cur)
					cur = &wire.Batch{}
					cur.Reset(len(schema.Dims))
				}
			}
		}
	}
	if cur.Len() > 0 {
		batches = append(batches, cur)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shift each op's ticks into a fresh unit so every op crosses
		// one barrier, like steady-state streaming.
		base := int64(i) * ticksPerUnit
		for _, src := range batches {
			shifted := &wire.Batch{Ticks: make([]int64, len(src.Ticks)), Cols: src.Cols, Values: src.Values}
			for j, tk := range src.Ticks {
				shifted.Ticks[j] = tk + base
			}
			if err := router.RouteBatch(ctx, shifted); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := router.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkRouter1Node(b *testing.B)  { benchmarkRouter(b, 1) }
func BenchmarkRouter2Nodes(b *testing.B) { benchmarkRouter(b, 2) }
func BenchmarkRouter4Nodes(b *testing.B) { benchmarkRouter(b, 4) }

// BenchmarkRouterActiveCells routes the cluster_serve workload's shape:
// 2 048 of a D2L2C8 m-layer's 4 096 cells, in a fixed scattered order,
// every tick of ten-tick units, to four nodes — enough distinct cells that
// the router's cell dictionary, not a 16-cell toy, is what a record costs.
// One op is one unit.
func BenchmarkRouterActiveCells(b *testing.B) {
	ha, _ := cube.NewFanoutHierarchy("A", 8, 2)
	hb, _ := cube.NewFanoutHierarchy("B", 8, 2)
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	const ticksPerUnit, cells = 10, 2048
	router, err := NewRouter(RouterConfig{Schema: schema, Nodes: make([]string, 4), TicksPerUnit: ticksPerUnit,
		Dial: func(context.Context, string) (io.WriteCloser, error) { return discardSink{}, nil }})
	if err != nil {
		b.Fatal(err)
	}
	var batch wire.Batch
	batch.Reset(2)
	for k := 0; k < ticksPerUnit; k++ {
		for i := 0; i < cells; i++ {
			c := i * 2039 % 4096 // 2039 is prime: a scattered half of the cells
			batch.Append(int64(k), []int32{int32(c % 64), int32(c / 64)}, 1)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch.Ticks {
			batch.Ticks[j] = int64(i*ticksPerUnit + j/cells)
		}
		if err := router.RouteBatch(ctx, &batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/rec")
}

// writeCheckpoint writes e's checkpoint document to w.
func writeCheckpoint(t *testing.T, w io.Writer, e *stream.Engine) {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteCheckpoint(w, cp); err != nil {
		t.Fatal(err)
	}
}
