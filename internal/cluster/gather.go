package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wire"
)

// GatherConfig configures a Gatherer.
type GatherConfig struct {
	// Schema is the cluster's cube schema; decoded snapshots are
	// validated against it.
	Schema *cube.Schema
	// Endpoints are the nodes' HTTP base URLs (streamd -listen), in the
	// router's partition order.
	Endpoints []string
	// HTTP is the client used for node calls; nil means a 5s-timeout
	// default. Its timeout must exceed the park (parkMillis).
	HTTP *http.Client
	// NodeID names the coordinator in its own /v1/info document.
	NodeID string
	// Logf, when set, receives gather diagnostics.
	Logf func(format string, args ...any)
}

// parkMillis is the ?wait= of a parking request: how long a node may hold
// it before answering 304. It bounds how stale "nothing new" can be, and —
// where a node server is closed without draining (httptest) — how long
// that close waits for a parked follower.
const parkMillis = 250

// errUnaligned reports a round that ended with the nodes' newest
// snapshots at different units; the previous view stays.
var errUnaligned = errors.New("cluster: gather: nodes are at different units")

// roundKind labels a round for the counters: prefetch rounds park and run
// on the mirror's own goroutine, revalidate rounds run synchronously for a
// reader that found the mirror stopped, or for Refresh.
type roundKind int

const (
	prefetch roundKind = iota
	revalidate
)

// nodeMirror is what the mirror knows of one node.
type nodeMirror struct {
	unit       atomic.Int64 // unit of the snapshot held for it, -1 before the first
	fetchNanos atomic.Int64 // body read + decode of the last snapshot it sent
	// mu orders what the node's fetches do once their answers arrive:
	// read the body into buf, decode it, replace the node's part. An
	// answer lands only on the part its request named, so a part takes
	// at most one successor (stream.DecodeSnapshotAfter).
	mu  sync.Mutex
	buf []byte
}

// Gatherer is the scatter-gather query tier: it implements serve.Source
// by mirroring every node's published snapshot and merging the mirrors,
// whenever they describe one closed unit, into one cluster-wide snapshot.
// Wrap it in serve.New to get a coordinator — the full query API over the
// merged view.
//
// The mirror is read-driven. One fetch primitive — the conditional GET
// /v1/snapshot?after=A&have=U.O[&wait=ms], naming unit U of engine run O
// as the part held, so a node one unit further on that run answers with
// its successor document — is used in rounds: every node is asked in
// parallel for something newer than the mirror holds of it, nodes found
// behind the newest are asked again for exactly that unit with a park (so
// they answer the instant they publish it), and the merged view advances
// only when all nodes hold the same unit. While the mirror is live a
// prefetch loop runs parking rounds back to back and Snapshot is an atomic
// load; the loop goes on only while somebody read the view during the
// previous round, so a cluster nobody queries costs its nodes nothing. A
// read that finds the mirror stopped runs one non-parking round first —
// it is answered from the newest unit every node had published when it
// arrived — and restarts the loop.
//
// The view is consistent, maybe one round stale, never torn: a round that
// cannot align keeps the previous merge.
type Gatherer struct {
	cfg GatherConfig

	// view is the merged snapshot every read is answered from.
	view atomic.Pointer[stream.Snapshot]
	// live is set while the prefetch loop runs. read is set by every
	// Snapshot call and cleared by the loop once a round.
	live, read atomic.Bool
	// reviveMu serializes readers that find the mirror stopped: one runs
	// the revalidation round, the others wait for it.
	reviveMu sync.Mutex
	// ctx ends with Close; loop counts the prefetch goroutine.
	ctx    context.Context
	cancel context.CancelFunc
	loop   sync.WaitGroup

	// mu guards the merge; parts — the newest snapshot held of each node —
	// is written under it and under that node's nodeMirror.mu. Neither is
	// held across a request, so Refresh and a reader's revalidation never
	// queue behind a parked prefetch round.
	mu    sync.Mutex
	parts []*stream.Snapshot
	nodes []nodeMirror

	rounds                                            [2]atomic.Int64 // by roundKind
	fullDocs, successorDocs                           atomic.Int64
	merges, unaligned, fetchErrors, bytes, fetchNanos atomic.Int64
}

// NewGatherer validates the configuration and builds a gatherer. It
// starts nothing: the mirror runs from the first Snapshot call on.
func NewGatherer(cfg GatherConfig) (*Gatherer, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrConfig)
	}
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("%w: no endpoints", ErrConfig)
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	g := &Gatherer{
		cfg:   cfg,
		parts: make([]*stream.Snapshot, len(cfg.Endpoints)),
		nodes: make([]nodeMirror, len(cfg.Endpoints)),
	}
	for i := range g.nodes {
		g.nodes[i].unit.Store(-1)
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g, nil
}

// Close stops the mirror and returns once its goroutine has exited. The
// last merged view stays readable; nothing refreshes it any more.
func (g *Gatherer) Close() {
	g.cancel()
	g.loop.Wait()
}

// Snapshot implements serve.Source. With the mirror live it is an atomic
// load; with the mirror stopped it first brings the view up to date
// (best-effort — failures keep the last good merge). Nil until every node
// has published its first unit.
func (g *Gatherer) Snapshot() *stream.Snapshot {
	g.read.Store(true)
	if !g.live.Load() {
		g.revive()
	}
	return g.view.Load()
}

// revive runs the revalidation round of a read that found the mirror
// stopped and, unless a node failed it, restarts the prefetch loop. A
// failing node leaves the mirror stopped: the next read tries again, and
// nothing hammers the node in between.
func (g *Gatherer) revive() {
	g.reviveMu.Lock()
	defer g.reviveMu.Unlock()
	if g.live.Load() || g.ctx.Err() != nil {
		return
	}
	if err := g.round(g.ctx, revalidate); err != nil {
		g.cfg.Logf("gather: %v", err)
		if !errors.Is(err, errUnaligned) {
			return
		}
	}
	// Reads up to here were served by the round above; the loop's first
	// round counts its own.
	g.read.Store(false)
	g.live.Store(true)
	g.loop.Add(1)
	go g.prefetchLoop()
}

// prefetchLoop runs parking rounds back to back for as long as each one
// is read during. It is the mirror's only goroutine; Close waits for it.
func (g *Gatherer) prefetchLoop() {
	defer g.loop.Done()
	for {
		err := g.round(g.ctx, prefetch)
		if err != nil && g.ctx.Err() == nil {
			g.cfg.Logf("gather: %v", err)
		}
		if (err != nil && !errors.Is(err, errUnaligned)) || !g.read.Swap(false) {
			// A reader that loads live before this store is still served
			// the view this round left: at most one round old.
			g.live.Store(false)
			return
		}
	}
}

// Refresh runs one synchronous round now and reports its outcome: an
// error when a node cannot be reached, has published nothing yet, or the
// nodes cannot be aligned on one unit. It runs beside a live mirror
// without waiting for it. The watermark exchange ahead of the round is
// what rejects "no snapshot yet" by name; the round alone decides what is
// fetched.
func (g *Gatherer) Refresh(ctx context.Context) error {
	for i, ep := range g.cfg.Endpoints {
		info, err := g.nodeInfo(ctx, ep)
		if err != nil {
			return fmt.Errorf("cluster: gather: node %d (%s): %w", i, ep, err)
		}
		if info.SnapshotUnit < 0 {
			return fmt.Errorf("cluster: gather: no common published unit yet")
		}
	}
	return g.round(ctx, revalidate)
}

// round is one pass of the mirror protocol: ask every node for something
// newer than is held of it (parking, in a prefetch round, until there is),
// re-ask the nodes then behind the newest for that very unit — parked, so
// alignment waits on the laggard's publish, not on a timer — and merge.
func (g *Gatherer) round(ctx context.Context, kind roundKind) error {
	g.rounds[kind].Add(1)
	all := make([]int, len(g.nodes))
	for i := range all {
		all[i] = i
	}
	if err := g.fetch(ctx, all, -1, kind == prefetch); err != nil {
		return fmt.Errorf("cluster: gather: %w", err)
	}
	newest := int64(-1)
	for i := range g.nodes {
		newest = max(newest, g.nodes[i].unit.Load())
	}
	var laggards []int
	for i := range g.nodes {
		if g.nodes[i].unit.Load() < newest {
			laggards = append(laggards, i)
		}
	}
	if len(laggards) > 0 {
		if err := g.fetch(ctx, laggards, newest-1, true); err != nil {
			return fmt.Errorf("cluster: gather: %w", err)
		}
	}
	return g.merge()
}

// fetch asks the given nodes in parallel for a snapshot newer than
// max(what is held of each, floor) and keeps what they send. The first
// failure cancels the others — a parked request must not outlive its
// round — and is returned.
func (g *Gatherer) fetch(ctx context.Context, nodes []int, floor int64, park bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, len(nodes))
	for _, i := range nodes {
		go func() {
			err := g.fetchOne(ctx, i, floor, park)
			if err != nil {
				cancel()
				err = fmt.Errorf("node %d (%s): %w", i, g.cfg.Endpoints[i], err)
			}
			errs <- err
		}()
	}
	var first error
	for range nodes {
		// The failure itself, not a sibling's cancellation it caused.
		if err := <-errs; err != nil && (first == nil || errors.Is(first, context.Canceled)) {
			first = err
		}
	}
	if first != nil && !errors.Is(first, context.Canceled) {
		g.fetchErrors.Add(1)
	}
	return first
}

// fetchOne is the fetch primitive against one node: a conditional GET
// that leaves the mirror alone on 304 and replaces the node's part on 200.
// It names the part it holds (?have=), so a node one unit ahead answers
// with the successor document, whose frames are rebuilt from the part's.
func (g *Gatherer) fetchOne(ctx context.Context, i int, floor int64, park bool) error {
	node := &g.nodes[i]
	node.mu.Lock()
	held := g.parts[i]
	node.mu.Unlock()
	after := floor
	if held != nil {
		after = max(after, held.Unit)
	}
	url := append(make([]byte, 0, 128), g.cfg.Endpoints[i]...)
	url = strconv.AppendInt(append(url, "/v1/snapshot?after="...), after, 10)
	if held != nil {
		url = strconv.AppendInt(append(url, "&have="...), held.Unit, 10)
		url = strconv.AppendUint(append(url, '.'), held.Origin, 16)
	}
	if park {
		url = strconv.AppendInt(append(url, "&wait="...), parkMillis, 10)
	}
	resp, err := g.do(ctx, string(url))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	if g.parts[i] != held {
		// A round running beside this one has replaced the part since the
		// request went out, with a newer unit than held: that answer
		// stands, and this one may be held's successor.
		return nil
	}
	t0 := time.Now()
	node.buf, err = readOK(resp, node.buf)
	if err != nil {
		return err
	}
	snap, err := stream.DecodeSnapshotAfter(g.cfg.Schema, held, node.buf)
	if err != nil {
		return err
	}
	took := time.Since(t0).Nanoseconds()
	node.fetchNanos.Store(took)
	g.fetchNanos.Add(took)
	g.bytes.Add(int64(len(node.buf)))
	if stream.IsSuccessorDocument(node.buf) {
		g.successorDocs.Add(1)
	} else {
		g.fullDocs.Add(1)
	}
	if held == nil || snap.Unit > held.Unit {
		g.mu.Lock()
		g.parts[i] = snap
		g.mu.Unlock()
		node.unit.Store(snap.Unit)
	}
	return nil
}

// merge advances the view when every node's part describes the same unit
// and that unit is not the one already served.
func (g *Gatherer) merge() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.parts {
		if p == nil || p.Unit != g.parts[0].Unit {
			g.unaligned.Add(1)
			return errUnaligned
		}
	}
	if cur := g.view.Load(); cur != nil && cur.Unit == g.parts[0].Unit {
		return nil
	}
	merged, err := stream.MergeSnapshots(g.cfg.Schema, g.parts)
	if err != nil {
		// Same unit, different UnitsDone or interval: nodes that do not
		// belong to one stream. Never served.
		g.unaligned.Add(1)
		return fmt.Errorf("%w: %v", errUnaligned, err)
	}
	g.view.Store(merged)
	g.merges.Add(1)
	return nil
}

func (g *Gatherer) do(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return g.cfg.HTTP.Do(req)
}

// readOK reads a response body into buf's backing, growing it as needed,
// and turns any status but 200 into an error that quotes the body's first
// line. It returns the buffer read into, error or not.
func readOK(resp *http.Response, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("HTTP %d: %s", resp.StatusCode, firstLine(buf))
	}
	return buf, nil
}

// nodeInfo fetches one node's /v1/info document.
func (g *Gatherer) nodeInfo(ctx context.Context, endpoint string) (*query.InfoResponse, error) {
	resp, err := g.do(ctx, endpoint+"/v1/info")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readOK(resp, nil)
	if err != nil {
		return nil, err
	}
	var info query.InfoResponse
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("decoding info: %w", err)
	}
	return &info, nil
}

// Nodes probes every node's /v1/info in parallel — one unreachable node's
// timeout does not delay the other rows — and reports per-node status in
// endpoint order, with what the mirror holds of each. Unreachable nodes
// are reported, not fatal.
func (g *Gatherer) Nodes(ctx context.Context) []query.NodeStatus {
	out := make([]query.NodeStatus, len(g.cfg.Endpoints))
	var wg sync.WaitGroup
	for i, ep := range g.cfg.Endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = query.NodeStatus{
				Endpoint:    ep,
				MirrorUnit:  g.nodes[i].unit.Load(),
				LastFetchMs: float64(g.nodes[i].fetchNanos.Load()) / 1e6,
			}
			info, err := g.nodeInfo(ctx, ep)
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			out[i].Reachable = true
			out[i].Info = info
		}()
	}
	wg.Wait()
	return out
}

// Info builds the coordinator's /v1/info document — its own identity
// plus the per-node statuses — for serve.Server.SetInfo. The serving
// layer fills SnapshotUnit/UnitsDone from the merged snapshot.
func (g *Gatherer) Info() query.InfoResponse {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return query.InfoResponse{
		NodeID:      g.cfg.NodeID,
		Role:        "coordinator",
		Shards:      len(g.cfg.Endpoints),
		WireVersion: wire.Version,
		APIVersion:  query.APIVersion,
		Nodes:       g.Nodes(ctx),
	}
}

// WriteMetrics renders the gather counters in Prometheus text format, for
// serve.Server.SetMetrics: rounds by kind, merges, rounds that could not
// align, failed fetches, the snapshot documents fetched by kind, and their
// bytes and time (body read + decode). One prefetch round, one merge and
// a successor document per node per unit is the steady state;
// revalidation rounds mark reads that found the mirror stopped, full
// documents a node's first contact, a gap or a restart.
func (g *Gatherer) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "regcube_gather_rounds_total{kind=\"prefetch\"} %d\n", g.rounds[prefetch].Load())
	fmt.Fprintf(w, "regcube_gather_rounds_total{kind=\"revalidate\"} %d\n", g.rounds[revalidate].Load())
	fmt.Fprintf(w, "regcube_gather_merges_total %d\n", g.merges.Load())
	fmt.Fprintf(w, "regcube_gather_unaligned_total %d\n", g.unaligned.Load())
	fmt.Fprintf(w, "regcube_gather_fetch_errors_total %d\n", g.fetchErrors.Load())
	fmt.Fprintf(w, "regcube_gather_documents_total{kind=\"full\"} %d\n", g.fullDocs.Load())
	fmt.Fprintf(w, "regcube_gather_documents_total{kind=\"successor\"} %d\n", g.successorDocs.Load())
	fmt.Fprintf(w, "regcube_gather_bytes_total %d\n", g.bytes.Load())
	fmt.Fprintf(w, "regcube_gather_fetch_nanos_total %d\n", g.fetchNanos.Load())
}

// firstLine trims an error body for diagnostics.
func firstLine(data []byte) string {
	const max = 200
	s := string(data)
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || i >= max {
			return s[:i]
		}
	}
	return s
}
