package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/wire"
)

const (
	testSpec = "D2L2C4"
	testUnit = 15
)

// ingestNode is an in-process stand-in for a streamd -ingest-listen: it
// accepts router connections and records, in arrival order, every record
// ("r tick m0 m1 value") and every barrier ("a unit") they carry.
type ingestNode struct {
	ln     net.Listener
	done   chan struct{}
	events []string
}

func startIngestNode(t *testing.T) *ingestNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &ingestNode{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.read(conn)
			conn.Close()
		}
	}()
	return n
}

func (n *ingestNode) read(conn net.Conn) {
	r, err := wire.NewReader(conn)
	if err != nil {
		n.events = append(n.events, "bad header: "+err.Error())
		return
	}
	var b wire.Batch
	for {
		_, ctrl, isCtrl, err := r.NextAny(&b)
		if err == io.EOF {
			return
		}
		if err != nil {
			n.events = append(n.events, "bad frame: "+err.Error())
			return
		}
		if isCtrl {
			n.events = append(n.events, fmt.Sprintf("a %d", ctrl.Unit))
			continue
		}
		for i := range b.Ticks {
			n.events = append(n.events, recordEvent(b.Ticks[i], []int32{b.Cols[0][i], b.Cols[1][i]}, b.Values[i]))
		}
	}
}

// stop closes the listener and returns what the node received. The router
// has closed its connections by then (run defers Router.Close), so every
// delivered frame has been read.
func (n *ingestNode) stop() []string {
	n.ln.Close()
	<-n.done
	return n.events
}

func recordEvent(tick int64, members []int32, value float64) string {
	return fmt.Sprintf("r %d %d %d %g", tick, members[0], members[1], value)
}

type testRecord struct {
	tick    int64
	members []int32
	value   float64
}

// routeThrough runs the router binary's run over in against n fresh ingest
// nodes and returns each node's event list and run's error.
func routeThrough(t *testing.T, n int, in io.Reader) ([][]string, error) {
	t.Helper()
	nodes := make([]*ingestNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startIngestNode(t)
		addrs[i] = nodes[i].ln.Addr().String()
	}
	var out bytes.Buffer
	err := run(context.Background(), options{spec: testSpec, unit: testUnit, nodes: strings.Join(addrs, ",")}, in, &out)
	events := make([][]string, n)
	for i, node := range nodes {
		events[i] = node.stop()
	}
	return events, err
}

// The same stream as text and as binary reaches each node as the same
// records in the same order with the same barrier sequence, and both are
// what stream.Partitioner.Route and the unit width prescribe.
func TestRunTextMatchesBinary(t *testing.T) {
	const numNodes = 2
	rng := rand.New(rand.NewSource(23))
	var recs []testRecord
	for tick := int64(0); tick < 4*testUnit; tick++ {
		if tick/testUnit == 2 {
			continue // a unit nobody sends: the barrier must skip over it
		}
		for k := rng.Intn(6); k >= 0; k-- {
			recs = append(recs, testRecord{tick, []int32{int32(rng.Intn(16)), int32(rng.Intn(16))}, float64(len(recs)) + 0.5})
		}
	}

	var text []byte
	var binary bytes.Buffer
	w, err := wire.NewWriter(&binary, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 7 // frames straddle unit boundaries
	for _, r := range recs {
		text = gen.AppendStreamRecord(text, r.tick, r.members, r.value)
		if err := w.Append(r.tick, r.members, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	spec, err := gen.ParseSpec(testSpec + "T1")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := spec.StreamSchema()
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartitioner(schema, numNodes)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, numNodes)
	unit := int64(0)
	for _, r := range recs {
		if u := r.tick / testUnit; u > unit {
			unit = u
			for i := range want {
				want[i] = append(want[i], fmt.Sprintf("a %d", u))
			}
		}
		sid, err := part.Route(r.members)
		if err != nil {
			t.Fatal(err)
		}
		want[sid] = append(want[sid], recordEvent(r.tick, r.members, r.value))
	}

	for name, in := range map[string]io.Reader{"text": bytes.NewReader(text), "binary": &binary} {
		got, err := routeThrough(t, numNodes, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if len(want[i]) == 0 {
				t.Fatalf("node %d is sent nothing: the stream does not exercise the partition", i)
			}
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: node %d received %d events, want %d:\n got %v\nwant %v",
					name, i, len(got[i]), len(want[i]), got[i], want[i])
			}
		}
	}
}

// A bad text line fails the run after the records before it were routed
// and flushed to their nodes.
func TestRunBadTextLine(t *testing.T) {
	in := strings.NewReader("0,1,1,1\n0,2,2,2\n0,3,oops,3\n0,4,4,4\n")
	got, err := routeThrough(t, 2, in)
	if err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("err = %v, want the third record named", err)
	}
	delivered := slices.Concat(got...)
	slices.Sort(delivered)
	if want := []string{"r 0 1 1 1", "r 0 2 2 2"}; !slices.Equal(delivered, want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
}

func TestRunRefusesFlagCombinations(t *testing.T) {
	for _, tc := range []struct {
		opt  options
		want string
	}{
		{options{nodes: "a:1,b:2", nodeAPI: "http://a,http://b"}, "-node-api requires -listen"},
		{options{nodes: "a:1,b:2", nodeAPI: "http://a", listen: "127.0.0.1:0"}, "lists 1 endpoints for 2 nodes"},
		{options{nodes: "a:1,b:2", listen: "127.0.0.1:0"}, "-listen requires -node-api"},
		{options{}, "-nodes is required"},
	} {
		tc.opt.spec, tc.opt.unit = testSpec, testUnit
		err := run(context.Background(), tc.opt, strings.NewReader(""), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc.opt, err, tc.want)
		}
	}
}

// -listen binds before any record is routed: port 0 announces the address
// the coordinator holds, and an address already taken fails the run at
// once, with stdin still open.
func TestRunCoordinatorListen(t *testing.T) {
	node := startIngestNode(t)
	defer node.stop()
	opt := options{spec: testSpec, unit: testUnit, nodes: node.ln.Addr().String(),
		nodeAPI: "http://127.0.0.1:1", listen: "127.0.0.1:0"}
	ctx, cancel := context.WithCancel(context.Background())
	in, feed := io.Pipe()
	outR, outW := io.Pipe()
	ran := make(chan error, 2)
	go func() { ran <- run(ctx, opt, in, outW); outW.Close() }()
	banner, err := bufio.NewReader(outR).ReadString('\n')
	go io.Copy(io.Discard, outR) //nolint:errcheck // drains "# routed" until run closes outW
	addr, ok := strings.CutPrefix(banner, "# coordinator listening on ")
	addr, _, _ = strings.Cut(addr, " ")
	if err != nil || !ok {
		t.Fatalf("first line %q (%v) is not the coordinator banner", banner, err)
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Fatalf("the announced address %s does not answer: %v", addr, err)
	} else {
		resp.Body.Close()
	}

	opt.listen = addr
	go func() { ran <- run(ctx, opt, in, io.Discard) }()
	select {
	case err := <-ran:
		if err == nil || !strings.Contains(err.Error(), "-listen") {
			t.Fatalf("router on a taken address: err = %v, want the -listen bind refused", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router on a taken address did not fail before routing")
	}
	feed.Close()
	cancel()
	if err := <-ran; err != nil {
		t.Fatalf("first router: %v", err)
	}
}
