package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/client"
	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/insight"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/regression"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tilt"
	"repro/internal/wal"
	"repro/internal/wire"
)

// pass is one traced pass: the workload's seeded input replayed inside
// this process through each layer's public functions, a span around every
// call. Per-layer metrics are medians over the spans of one name.
type pass struct {
	w     workload
	in    *input
	t     *tracer
	dir   string // WAL directories of the pass
	smoke bool
	put   func(name string, v float64, unit string)
}

// partitions is how many ways the cluster layers split the stream on
// every workload: the node count of cluster_serve.
const partitions = 4

// reps calls once(rep) at least three times and until the time budget is
// spent. A smoke pass runs each measurement twice.
func (p *pass) reps(once func(rep int) error) error {
	minReps, maxReps, budget := 3, 200, 150*time.Millisecond
	if p.smoke {
		minReps, maxReps, budget = 2, 2, 0
	}
	t0 := time.Now()
	for rep := 0; rep < maxReps && (rep < minReps || time.Since(t0) < budget); rep++ {
		if err := once(rep); err != nil {
			return err
		}
	}
	return nil
}

// span times fn under a span of the open tracer.
func (p *pass) span(name string, ref int64, fn func() error) error {
	id := p.t.begin(name, ref)
	err := fn()
	p.t.end(id)
	return err
}

// metric reports the median duration of the spans that carry the metric's
// own name — a layer section names each timed call after the metric it
// samples — in seconds times scale (1e3 for ms; 1e9/records for ns per
// record).
func (p *pass) metric(name string, scale float64, unit string) {
	p.put(name, median(durations(p.t.spans, name))*scale, unit)
}

// sample is the common case of a layer measurement: fn alone, repeated
// under spans named after the metric, reported as their median.
func (p *pass) sample(name string, scale float64, unit string, fn func(rep int) error) error {
	err := p.reps(func(rep int) error { return p.span(name, int64(rep), func() error { return fn(rep) }) })
	p.metric(name, scale, unit)
	return err
}

// engineConfig is the workload's node configuration, at a shard count.
func (p *pass) engineConfig(shards int, publish bool) node.EngineConfig {
	return node.EngineConfig{
		Spec: p.w.spec, TicksPerUnit: p.w.ticksPerUnit, Threshold: 1, Alg: "mo",
		Tilt: p.w.tilt, Shards: shards, PublishSnapshots: publish,
	}
}

// ingestUnit feeds one unit's frames to the analyzer, then stamps the WAL
// watermark as the node does before a checkpoint — a round trip through
// every shard, so the shards have consumed the unit when it returns.
func (p *pass) ingestUnit(a *node.Analyzer, unit int64) error {
	var b wire.Batch
	cuts := p.in.cuts(false)
	for i := 0; i+1 < len(cuts); i++ {
		p.in.frame(&b, unit, cuts[i], cuts[i+1])
		if _, err := a.IngestBatch(&b); err != nil {
			return err
		}
	}
	return a.SetWALSeq((unit + 1) * int64(p.in.unitRecords()))
}

// encodeUnits returns the wire stream of units [0,n): header and frames.
func (p *pass) encodeUnits(n int) []byte {
	enc := encoder{in: p.in}
	stream := enc.header()
	cuts := p.in.cuts(false)
	for u := int64(0); u < int64(n); u++ {
		for i := 0; i+1 < len(cuts); i++ {
			stream = append(stream, enc.frame(u, cuts[i], cuts[i+1])...)
		}
	}
	return stream
}

// post runs one typed request through a server's POST /v1/query, the path
// the client SDK takes, and fails on any non-200 answer.
func post(srv http.Handler, reqs ...query.Request) error {
	body, err := json.Marshal(query.BatchRequest{Queries: query.Wrap(reqs...)})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST /v1/query: %d %s", rec.Code, rec.Body.String())
	}
	return nil
}

// sink is a router destination held in memory: the frames routed to one
// node, read back by that node's decoder.
type sink struct{ bytes.Buffer }

func (*sink) Close() error { return nil }

// cluster is the in-process four-node topology of the cluster layers: a
// router writing to memory sinks, one single-shard analyzer per node
// served over loopback HTTP, and the gatherer over those.
type clusterRig struct {
	router   *cluster.Router
	sinks    []*sink
	readers  []*wire.Reader
	nodes    []*node.Analyzer
	servers  []*httptest.Server
	gatherer *cluster.Gatherer
	infoGets int // GET /v1/info requests the gatherer has made
}

func (r *clusterRig) close() {
	for _, s := range r.servers {
		s.Close()
	}
	for _, a := range r.nodes {
		a.Close()
	}
}

// RoundTrip counts the gatherer's watermark probes on their way out.
func (r *clusterRig) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/info" {
		r.infoGets++
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (p *pass) newClusterRig() (*clusterRig, error) {
	r := &clusterRig{}
	byAddr := map[string]*sink{}
	var addrs, apis []string
	for i := 0; i < partitions; i++ {
		a, err := p.engineConfig(1, true).Build()
		if err != nil {
			r.close()
			return nil, err
		}
		srv := httptest.NewServer(serve.New(a, p.in.schema))
		s := &sink{}
		addr := fmt.Sprintf("node-%d", i)
		byAddr[addr] = s
		r.nodes, r.servers, r.sinks = append(r.nodes, a), append(r.servers, srv), append(r.sinks, s)
		r.readers = append(r.readers, nil)
		addrs, apis = append(addrs, addr), append(apis, srv.URL)
	}
	var err error
	r.router, err = cluster.NewRouter(cluster.RouterConfig{
		Schema: p.in.schema, Nodes: addrs, TicksPerUnit: p.w.ticksPerUnit,
		Dial: func(_ context.Context, addr string) (io.WriteCloser, error) { return byAddr[addr], nil },
	})
	if err == nil {
		r.gatherer, err = cluster.NewGatherer(cluster.GatherConfig{
			Schema: p.in.schema, Endpoints: apis, HTTP: &http.Client{Transport: r, Timeout: 5 * time.Second},
		})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// untraced runs fn without a span, where drain's caller wants none.
func untraced(_ string, _ int64, fn func() error) error { return fn() }

// drain has every node decode and apply what the router has flushed to
// its sink so far: whole frames only, since the router flushes at barriers.
// Each decode, ingest and close runs under span.
func (r *clusterRig) drain(span func(name string, ref int64, fn func() error) error, unit int64) error {
	var b wire.Batch
	for i, s := range r.sinks {
		if r.readers[i] == nil {
			if s.Len() == 0 {
				continue
			}
			rd, err := wire.NewReader(&s.Buffer)
			if err != nil {
				return err
			}
			r.readers[i] = rd
		}
		for {
			var ctrl wire.Control
			var isCtrl bool
			err := span("wire.decode", unit, func() (err error) {
				_, ctrl, isCtrl, err = r.readers[i].NextAny(&b)
				return err
			})
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if isCtrl {
				err = span("stream.close_unit", unit, func() error { _, err := r.nodes[i].AdvanceTo(ctrl.Unit); return err })
			} else {
				err = span("stream.ingest", unit, func() error { _, err := r.nodes[i].IngestBatch(&b); return err })
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pipeline replays units of the input through the layers in the order the
// workload's system runs them — decode, (route | WAL append), ingest, unit
// close, (checkpoint, alert observe | gather), queries — under the given
// tracer, which must be fresh, and returns how long the whole took and the
// share of it spent closing units.
func (p *pass) pipeline(t *tracer, units int, queriesPerUnit float64) (seconds, closeShare float64, err error) {
	saved := p.t
	p.t = t
	defer func() { p.t = saved }()
	stream := p.encodeUnits(units)
	framesPerUnit := len(p.in.cuts(false)) - 1
	cycle := queryCycle(p.in)

	var a *node.Analyzer
	var rig *clusterRig
	var srv *serve.Server
	var wlog *wal.Log
	var mgr *alert.Manager
	if p.w.nodes > 1 {
		if rig, err = p.newClusterRig(); err != nil {
			return 0, 0, err
		}
		defer rig.close()
		srv = serve.New(rig.gatherer, p.in.schema)
	} else {
		if a, err = p.engineConfig(p.w.shards, true).Build(); err != nil {
			return 0, 0, err
		}
		defer a.Close()
		srv = serve.New(a, p.in.schema)
	}
	if p.w.durable {
		dir, err := os.MkdirTemp(p.dir, "pipeline-wal-")
		if err != nil {
			return 0, 0, err
		}
		if wlog, err = wal.Open(wal.Options{Dir: dir, Sync: wal.SyncInterval}); err != nil {
			return 0, 0, err
		}
		defer wlog.Close()
		if mgr, err = alert.New(alert.Config{Schema: p.in.schema, Warn: p.w.alertCrit / 2, Crit: p.w.alertCrit, HoldUnits: 2}); err != nil {
			return 0, 0, err
		}
		defer mgr.Close()
	}

	rd, err := wire.NewReader(bytes.NewReader(stream))
	if err != nil {
		return 0, 0, err
	}
	var b wire.Batch
	var checkpoint bytes.Buffer
	ctx := context.Background()
	requests, owed := int64(0), 0.0
	t0 := time.Now()
	root := t.begin("pipeline", -1)
	for u := int64(0); u < int64(units) && err == nil; u++ {
		unitSpan := t.begin("unit", u)
		for f := 0; f < framesPerUnit && err == nil; f++ {
			err = p.span("wire.decode", u, func() error { _, err := rd.Next(&b); return err })
			if err == nil && wlog != nil {
				err = p.span("wal.append", u, func() error { return wlog.AppendColumnar(&b) })
			}
			if err == nil && rig != nil {
				err = p.span("cluster.route", u, func() error { return rig.router.RouteBatch(ctx, &b) })
			} else if err == nil {
				err = p.span("stream.ingest", u, func() error { _, err := a.IngestBatch(&b); return err })
			}
		}
		switch {
		case err != nil:
		case rig != nil:
			if err = p.span("cluster.route", u, func() error { return rig.router.Advance(ctx, u+1) }); err == nil {
				err = rig.drain(p.span, u)
			}
		default:
			// The watermark stamp waits for every shard, so what is left
			// of the unit's accumulation is charged to ingest, not close.
			err = p.span("stream.ingest", u, func() error { return a.SetWALSeq((u + 1) * int64(p.in.unitRecords())) })
			if err == nil {
				err = p.span("stream.close_unit", u, func() error { _, err := a.AdvanceTo(u + 1); return err })
			}
		}
		if err == nil && wlog != nil {
			checkpoint.Reset()
			err = p.span("node.checkpoint_write", u, func() error { return a.WriteCheckpoint(&checkpoint) })
			if err == nil {
				err = p.span("alert.observe", u, func() error { mgr.Observe(a.Snapshot()); return nil })
			}
		}
		if err == nil && rig != nil {
			err = p.span("cluster.gather_refresh", u, func() error { return rig.gatherer.Refresh(ctx) })
		}
		for owed += queriesPerUnit; owed >= 1 && err == nil; owed-- {
			reqSpan := t.begin("request", requests)
			err = p.span("serve.http", requests, func() error {
				if p.w.probe {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
					return nil
				}
				return post(srv, cycle[requests%int64(len(cycle))]...)
			})
			t.end(reqSpan)
			requests++
		}
		t.end(unitSpan)
	}
	t.end(root)
	if err != nil {
		return 0, 0, fmt.Errorf("pipeline: %w", err)
	}
	seconds = time.Since(t0).Seconds()
	// The close share is read off the spans (none when the tracer is off).
	for _, d := range durations(t.spans, "stream.close_unit") {
		closeShare += d / seconds
	}
	return seconds, closeShare, nil
}

// runTraced is the traced pass of one workload. It adds every layer's
// metrics to res.PerLayer and writes trace-<workload>.json.
func runTraced(w workload, res *result, smoke bool, traceDir string) error {
	in, err := newInput(w.spec, w.cells, w.ticksPerUnit, w.slopeSigma, res.Seed)
	if err != nil {
		return err
	}
	live.Lock()
	root := live.root
	live.Unlock()
	dir, err := os.MkdirTemp(root, "traced-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &pass{w: w, in: in, dir: dir, smoke: smoke,
		put: func(name string, v float64, unit string) { res.PerLayer[name] = metric{v, unit} }}

	// The pipeline runs as many units as give it about a second, and as
	// many queries per unit as the untraced run issued.
	units := max(4, min(200, 2_000_000/in.unitRecords()))
	if smoke {
		units = 4
	}
	queriesPerUnit := float64(res.Samples["query"]) / float64(max(1, res.Samples["units"]))
	// Untraced, traced, untraced: the overhead is the traced run against
	// the mean of its neighbours, so warm-up drift cancels.
	before, _, err := p.pipeline(newTracer(false), units, queriesPerUnit)
	if err != nil {
		return err
	}
	p.t = newTracer(true)
	traced, closeShare, err := p.pipeline(p.t, units, queriesPerUnit)
	if err != nil {
		return err
	}
	after, _, err := p.pipeline(newTracer(false), units, queriesPerUnit)
	if err != nil {
		return err
	}
	p.put("trace.overhead_share", 2*traced/(before+after)-1, "ratio")
	p.put("stream.close_share", closeShare, "ratio")
	if !smoke && w.minCloseShare > 0 {
		res.addCheck(check{"close_share", closeShare >= w.minCloseShare,
			fmt.Sprintf("%.3f of the in-process pipeline is unit close, want at least %g", closeShare, w.minCloseShare)})
	}
	if !smoke && w.maxCloseShare > 0 {
		res.addCheck(check{"close_share", closeShare <= w.maxCloseShare,
			fmt.Sprintf("%.3f of the in-process pipeline is unit close, want at most %g", closeShare, w.maxCloseShare)})
	}

	layers := p.t.begin("layers", -1)
	for _, section := range []func() error{
		p.wireLayers, p.engineLayers, p.coreLayers, p.tiltLayer, p.walLayers,
		p.checkpointLayers, p.clusterLayers, p.queryLayers,
	} {
		if err := section(); err != nil {
			return err
		}
	}
	p.t.end(layers)

	id := p.t.begin("model", -1)
	model, err := fitCostModel(p.t, res.Seed, smoke)
	p.t.end(id)
	if err != nil {
		return err
	}
	p.put("model.ns_per_rec", model.NsPerRec, "ns")
	p.put("model.ns_per_cell_cuboid", model.NsPerCellCuboid, "ns")
	p.put("model.ns_per_unit", model.NsPerUnit, "ns")
	p.put("model.ns_per_shard", model.NsPerShard, "ns")
	p.put("model.r2", model.R2, "ratio")

	path, err := writeTrace(traceDir, &traceFile{
		Workload: w.name, Seed: res.Seed, Host: res.Host,
		Layers: layerStats(p.t.spans), Model: model, Spans: p.t.spans,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans written to %s\n", w.name, len(p.t.spans), path)
	return nil
}

// untilEOF calls next until it reports the end of its input.
func untilEOF(next func() error) error {
	for {
		if err := next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// wireLayers times the two codecs over one unit: the binary frames both
// ways, and the text records the stdin path still accepts.
func (p *pass) wireLayers() error {
	recs := float64(p.in.unitRecords())
	perRec := 1e9 / recs
	enc := encoder{in: p.in}
	cuts := p.in.cuts(false)
	var stream []byte
	if err := p.reps(func(rep int) error {
		stream = enc.header()
		return p.span("wire.encode_ns_per_rec", int64(rep), func() error {
			for i := 0; i+1 < len(cuts); i++ {
				stream = append(stream, enc.frame(int64(rep), cuts[i], cuts[i+1])...)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	p.metric("wire.encode_ns_per_rec", perRec, "ns")
	p.put("wire.bytes_per_rec", float64(len(stream)-wire.HeaderLen)/recs, "B")

	var b wire.Batch
	if err := p.reps(func(rep int) error {
		rd, err := wire.NewReader(bytes.NewReader(stream))
		if err != nil {
			return err
		}
		return p.span("wire.decode_ns_per_rec", int64(rep), func() error {
			return untilEOF(func() error { _, err := rd.Next(&b); return err })
		})
	}); err != nil {
		return err
	}
	p.metric("wire.decode_ns_per_rec", perRec, "ns")

	var text []byte
	members := make([]int32, p.in.dims)
	p.in.frame(&b, 0, 0, p.in.unitRecords())
	for i := range b.Ticks {
		for d := range members {
			members[d] = b.Cols[d][i]
		}
		text = gen.AppendStreamRecord(text, b.Ticks[i], members, b.Values[i])
	}
	if err := p.reps(func(rep int) error {
		rr := gen.NewRecordReader(bufio.NewReader(bytes.NewReader(text)), p.in.dims)
		return p.span("gen.text_decode_ns_per_rec", int64(rep), func() error {
			return untilEOF(func() error { _, _, _, err := rr.Next(); return err })
		})
	}); err != nil {
		return err
	}
	p.metric("gen.text_decode_ns_per_rec", perRec, "ns")
	return nil
}

// engineLayers times the stream engine's stages on one unit at a time: the
// partition fold, the accumulate path of a single engine, and sharded
// ingest and unit close at 1, 2 and 4 shards — the measured answer to what
// sharding buys on each.
func (p *pass) engineLayers() error {
	perRec := 1e9 / float64(p.in.unitRecords())
	var unit wire.Batch
	p.in.frame(&unit, 0, 0, p.in.unitRecords())

	part, err := stream.NewPartitioner(p.in.schema, partitions)
	if err != nil {
		return err
	}
	hb := make([]uint64, unit.Len())
	if err := p.sample("stream.fold_ns_per_rec", perRec, "ns", func(int) error {
		return part.FoldColumns(&unit, 0, unit.Len(), hb)
	}); err != nil {
		return err
	}

	// Accumulate only: a single engine without publication, batches cut
	// inside one unit; the close between reps stays outside the span.
	acc, err := p.engineConfig(1, false).Build()
	if err != nil {
		return err
	}
	defer acc.Close()
	var b wire.Batch
	cuts := p.in.cuts(false)
	if err := p.reps(func(rep int) error {
		if err := p.span("stream.accumulate_ns_per_rec", int64(rep), func() error {
			for i := 0; i+1 < len(cuts); i++ {
				p.in.frame(&b, int64(rep), cuts[i], cuts[i+1])
				if _, err := acc.IngestBatch(&b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		_, err := acc.AdvanceTo(int64(rep) + 1)
		return err
	}); err != nil {
		return err
	}
	p.metric("stream.accumulate_ns_per_rec", perRec, "ns")

	// variant runs ingest and close spans on one engine configuration.
	variant := func(suffix string, shards int, publish bool) error {
		a, err := p.engineConfig(shards, publish).Build()
		if err != nil {
			return err
		}
		defer a.Close()
		return p.reps(func(rep int) error {
			u := int64(rep)
			if err := p.span("stream.sharded_ingest_ns_per_rec"+suffix, u, func() error { return p.ingestUnit(a, u) }); err != nil {
				return err
			}
			return p.span("stream.close_unit_ms"+suffix, u, func() error { _, err := a.AdvanceTo(u + 1); return err })
		})
	}
	for _, n := range []int{1, 2, 4} {
		suffix := fmt.Sprintf(".s%d", n)
		if err := variant(suffix, n, true); err != nil {
			return err
		}
		p.metric("stream.sharded_ingest_ns_per_rec"+suffix, perRec, "ns")
		p.metric("stream.close_unit_ms"+suffix, 1e3, "ms")
	}
	if err := variant(".nopublish", p.w.shards, false); err != nil {
		return err
	}
	p.metric("stream.close_unit_ms.nopublish", 1e3, "ms")
	own := fmt.Sprintf("stream.close_unit_ms.s%d", p.w.shards)
	p.put("stream.close_us_per_mcell", median(durations(p.t.spans, own))*1e6/float64(p.in.cells), "us")
	return nil
}

// unitInputs fits one unit's m-layer cells the way the engine's
// accumulators do and returns them in canonical member order.
func (p *pass) unitInputs() ([]core.Input, error) {
	var b wire.Batch
	p.in.frame(&b, 0, 0, p.in.unitRecords())
	inputs := make([]core.Input, p.in.cells)
	for c := range inputs {
		acc := regression.NewAccumulator(0)
		for t := 0; t < p.in.ticksPerUnit; t++ {
			if err := acc.Add(int64(t), b.Values[t*p.in.cells+c]); err != nil {
				return nil, err
			}
		}
		isb, err := acc.Snapshot()
		if err != nil {
			return nil, err
		}
		members := make([]int32, p.in.dims)
		for d := range members {
			members[d] = b.Cols[d][c]
		}
		inputs[c] = core.Input{Members: members, Measure: isb}
	}
	slices.SortFunc(inputs, func(a, b core.Input) int { return slices.Compare(a.Members, b.Members) })
	return inputs, nil
}

// coreLayers times the paper's two cubing algorithms on one unit's
// m-layer — the batch kernel of Figures 8 to 10 under the stream engine.
func (p *pass) coreLayers() error {
	inputs, err := p.unitInputs()
	if err != nil {
		return err
	}
	thr := exception.Global(1)
	var res *core.Result
	if err := p.sample("core.mocubing_ms", 1e3, "ms", func(int) (err error) {
		res, err = core.MOCubing(p.in.schema, inputs, thr)
		return err
	}); err != nil {
		return err
	}
	p.put("core.cells_computed", float64(res.Stats.CellsComputed), "count")
	p.put("core.cells_retained", float64(res.Stats.CellsRetained), "count")
	path := cube.NewLattice(p.in.schema).DefaultPath()
	return p.sample("core.popular_path_ms", 1e3, "ms", func(int) error {
		_, err := core.PopularPath(p.in.schema, inputs, thr, path)
		return err
	})
}

// tiltLayer times registering one closed unit with a calendar tilt frame,
// promotions included, averaged over a run of units long enough to
// cascade through the hour and day levels.
func (p *pass) tiltLayer() error {
	const pushes = 400
	return p.sample("tilt.frame_add_ns", 1e9/pushes, "ns", func(int) error {
		frame, err := tilt.NewUnitFrame(tilt.CalendarLevels())
		if err != nil {
			return err
		}
		for u := int64(0); u < pushes; u++ {
			if err := frame.Push(regression.ISB{Tb: u * 10, Te: u*10 + 9, Base: 1, Slope: 0.1}); err != nil {
				return err
			}
		}
		return nil
	})
}

// walLayers times the write-ahead log both ways: appending one unit under
// each sync policy, and replaying it with a no-op callback.
func (p *pass) walLayers() error {
	recs := float64(p.in.unitRecords())
	cuts := p.in.cuts(false)
	var b wire.Batch
	policies := []struct {
		name   string
		policy wal.SyncPolicy
	}{{"off", wal.SyncOff}, {"interval", wal.SyncInterval}, {"batch", wal.SyncBatch}}
	var replayDir string
	var replayRecs float64
	for _, pol := range policies {
		dir := filepath.Join(p.dir, "wal-"+pol.name)
		wlog, err := wal.Open(wal.Options{Dir: dir, Sync: pol.policy})
		if err != nil {
			return err
		}
		err = p.sample("wal.append_ns_per_rec."+pol.name, 1e9/recs, "ns", func(rep int) error {
			for i := 0; i+1 < len(cuts); i++ {
				p.in.frame(&b, int64(rep), cuts[i], cuts[i+1])
				if err := wlog.AppendColumnar(&b); err != nil {
					return err
				}
			}
			return nil
		})
		logged := float64(wlog.Seq())
		if cerr := wlog.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if pol.policy == wal.SyncOff {
			replayDir, replayRecs = dir, logged
			var size int64
			segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
			if err != nil {
				return err
			}
			for _, seg := range segs {
				st, err := os.Stat(seg)
				if err != nil {
					return err
				}
				size += st.Size()
			}
			p.put("wal.bytes_per_rec", float64(size)/logged, "B")
		}
	}
	return p.sample("wal.replay_ns_per_rec", 1e9/replayRecs, "ns", func(int) error {
		_, err := wal.Replay(replayDir, 0, func(int64, wal.Record) error { return nil })
		return err
	})
}

// checkpointLayers times what a durable node does around its engine: the
// record-at-a-time ingest a WAL replay drives, and writing and loading
// the checkpoint of an engine holding a few units of history.
func (p *pass) checkpointLayers() error {
	a, err := p.engineConfig(p.w.shards, true).Build()
	if err != nil {
		return err
	}
	defer a.Close()
	var unit wire.Batch
	members := make([]int32, p.in.dims)
	if err := p.reps(func(rep int) error {
		p.in.frame(&unit, int64(rep), 0, p.in.unitRecords())
		if err := p.span("node.replay_ingest_ns_per_rec", int64(rep), func() error {
			for i := range unit.Ticks {
				for d := range members {
					members[d] = unit.Cols[d][i]
				}
				if _, err := a.Ingest(members, unit.Ticks[i], unit.Values[i]); err != nil {
					return err
				}
			}
			return a.SetWALSeq(0)
		}); err != nil {
			return err
		}
		_, err := a.AdvanceTo(int64(rep) + 1)
		return err
	}); err != nil {
		return err
	}
	p.metric("node.replay_ingest_ns_per_rec", 1e9/float64(p.in.unitRecords()), "ns")

	// Leave a unit open, as a checkpoint cut mid-stream finds it.
	if err := p.ingestUnit(a, a.Unit()); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := p.sample("node.checkpoint_write_ms", 1e3, "ms", func(int) error {
		buf.Reset()
		return a.WriteCheckpoint(&buf)
	}); err != nil {
		return err
	}
	p.put("node.checkpoint_bytes", float64(buf.Len()), "B")
	if err := p.reps(func(rep int) error {
		fresh, err := p.engineConfig(p.w.shards, true).Build()
		if err != nil {
			return err
		}
		defer fresh.Close()
		return p.span("node.checkpoint_load_ms", int64(rep), func() error { return fresh.LoadCheckpoint(bytes.NewReader(buf.Bytes())) })
	}); err != nil {
		return err
	}
	p.metric("node.checkpoint_load_ms", 1e3, "ms")
	return nil
}

// clusterLayers times the cross-process tier in-process: routing one unit
// to memory sinks, the snapshot codec and merge over the partitions, and
// the gatherer with and without a new unit to fetch.
func (p *pass) clusterLayers() error {
	rig, err := p.newClusterRig()
	if err != nil {
		return err
	}
	defer rig.close()
	ctx := context.Background()
	cuts := p.in.cuts(false)
	var b wire.Batch
	retries := 0
	// Every rep routes one unit (the barrier of the next rep's first
	// record included), applies it on the nodes and gathers it.
	if err := p.reps(func(rep int) error {
		u := int64(rep)
		if err := p.span("cluster.route_ns_per_rec", u, func() error {
			for i := 0; i+1 < len(cuts); i++ {
				p.in.frame(&b, u, cuts[i], cuts[i+1])
				if err := rig.router.RouteBatch(ctx, &b); err != nil {
					return err
				}
			}
			return rig.router.Advance(ctx, u+1)
		}); err != nil {
			return err
		}
		if err := rig.drain(untraced, u); err != nil {
			return err
		}
		before := rig.infoGets
		if err := p.span("cluster.gather_refresh_ms", u, func() error { return rig.gatherer.Refresh(ctx) }); err != nil {
			return err
		}
		// One probe per node aligns at once; each extra round is a retry.
		retries += (rig.infoGets-before)/partitions - 1
		return p.span("cluster.gather_noop_ms", u, func() error { return rig.gatherer.Refresh(ctx) })
	}); err != nil {
		return err
	}
	p.metric("cluster.route_ns_per_rec", 1e9/float64(p.in.unitRecords()), "ns")
	p.metric("cluster.gather_refresh_ms", 1e3, "ms")
	p.metric("cluster.gather_noop_ms", 1e3, "ms")
	p.put("cluster.align_retries", float64(retries), "count")

	// The snapshot codec, over the partitions' snapshots of the last unit.
	snaps := make([]*stream.Snapshot, len(rig.nodes))
	for i, a := range rig.nodes {
		snaps[i] = a.Snapshot()
	}
	encoded := make([][]byte, len(snaps))
	var size int
	if err := p.sample("stream.snapshot_encode_ms", 1e3, "ms", func(int) (err error) {
		size = 0
		for i, s := range snaps {
			if encoded[i], err = stream.EncodeSnapshot(s); err != nil {
				return err
			}
			size += len(encoded[i])
		}
		return nil
	}); err != nil {
		return err
	}
	p.put("stream.snapshot_bytes", float64(size), "B")
	decoded := make([]*stream.Snapshot, len(snaps))
	if err := p.sample("stream.snapshot_decode_ms", 1e3, "ms", func(int) (err error) {
		for i, data := range encoded {
			if decoded[i], err = stream.DecodeSnapshot(p.in.schema, data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return p.sample("stream.snapshot_merge_ms", 1e3, "ms", func(int) error {
		_, err := stream.MergeSnapshots(p.in.schema, decoded)
		return err
	})
}

// queryLayers times the read side on the snapshot of an engine that has
// closed a dozen units of the workload: executor construction, each kind's
// execution and allocations, the same through the HTTP handler, the two
// insight scans, the alert lifecycle's per-snapshot work, and a client
// round trip on loopback.
func (p *pass) queryLayers() error {
	a, err := p.engineConfig(p.w.shards, true).Build()
	if err != nil {
		return err
	}
	defer a.Close()
	const history = 12
	var snaps []*stream.Snapshot
	for u := int64(0); u < history; u++ {
		if err := p.ingestUnit(a, u); err != nil {
			return err
		}
		if _, err := a.AdvanceTo(u + 1); err != nil {
			return err
		}
		snaps = append(snaps, a.Snapshot())
	}
	snap := snaps[history-1]
	var ex *query.Executor
	if err := p.sample("query.executor_new_us", 1e6, "us", func(int) (err error) {
		ex, err = query.NewExecutor(p.in.schema, snap)
		return err
	}); err != nil {
		return err
	}

	srv := serve.New(a, p.in.schema)
	var execSum, httpSum float64
	for _, kind := range queryKinds {
		req := kind.req(p.in)
		err := p.sample("query.exec_us."+kind.name, 1e6, "us", func(int) error { _, err := ex.Execute(req); return err })
		if err == nil {
			err = p.sample("serve.http_us."+kind.name, 1e6, "us", func(int) error { return post(srv, req) })
		}
		if err != nil {
			return fmt.Errorf("%s: %w", kind.name, err)
		}
		execSum += median(durations(p.t.spans, "query.exec_us."+kind.name))
		httpSum += median(durations(p.t.spans, "serve.http_us."+kind.name))
		p.put("query.allocs_per_op."+kind.name, testing.AllocsPerRun(20, func() {
			_, _ = ex.Execute(req) // errors were surfaced by the timed reps above
		}), "count")
	}
	p.put("serve.encode_share", (httpSum-execSum)/httpSum, "ratio")

	key, err := query.OCell(p.in.oCell...).Resolve(p.in.schema)
	if err != nil {
		return err
	}
	if err := p.sample("insight.forecast_us", 1e6, "us", func(int) error {
		_, err := insight.ForecastHistory(snap.HistoryOf(key), 60, nil)
		return err
	}); err != nil {
		return err
	}
	if err := p.sample("insight.scan_changes_us", 1e6, "us", func(int) error {
		insight.ScanChanges(snap, 0, 8)
		return nil
	}); err != nil {
		return err
	}

	crit := p.w.alertCrit
	if crit == 0 {
		crit = 2
	}
	mgr, err := alert.New(alert.Config{Schema: p.in.schema, Warn: crit / 2, Crit: crit, HoldUnits: 2})
	if err != nil {
		return err
	}
	defer mgr.Close()
	if err := p.sample("alert.observe_us", 1e6, "us", func(rep int) error {
		mgr.Observe(snaps[rep%history])
		return nil
	}); err != nil {
		return err
	}

	web := httptest.NewServer(srv)
	defer web.Close()
	c, err := client.New(client.WithEndpoints(web.URL), client.WithRetries(0))
	if err != nil {
		return err
	}
	return p.sample("client.roundtrip_us", 1e6, "us", func(int) error {
		_, err := c.Health(context.Background())
		return err
	})
}
