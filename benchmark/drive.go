package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wire"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median. One set-up is a handful of process spawns and a short burst of
// ingest, so a single sample is dominated by scheduler luck.
const setupReps = 5

// closedLoopLead is how many units a closed-loop feeder may have written
// beyond the last one the node reported closed: enough that the node never
// waits for input, and a queue counted in units. Without it the queue is
// whatever the kernel's socket buffers hold that run, and unit_visible_ms
// measures their autotuning.
const closedLoopLead = 4

// lateQuery is the latency past which an answered query counts as failed.
const lateQuery = time.Second

// queryKinds are the nine typed request kinds, each addressed at a cell
// the input guarantees to exist. The untraced issuer cycles through them
// (plus one three-request batch); the traced pass times each in-process.
var queryKinds = []struct {
	name string
	req  func(in *input) query.Request
}{
	{"summary", func(*input) query.Request { return query.SummaryRequest{} }},
	{"exceptions", func(*input) query.Request { return query.ExceptionsRequest{K: 16} }},
	{"alerts", func(*input) query.Request { return query.AlertsRequest{} }},
	{"supporters", func(in *input) query.Request {
		return query.SupportersRequest{CellRef: query.OCell(in.oCell...)}
	}},
	{"slice", func(in *input) query.Request {
		return query.SliceRequest{Dim: 0, Level: in.schema.Dims[0].OLevel, Member: in.oCell[0]}
	}},
	{"trend", func(in *input) query.Request { return query.TrendRequest{CellRef: query.OCell(in.oCell...), K: 2} }},
	{"frame", func(in *input) query.Request { return query.FrameRequest{CellRef: query.OCell(in.oCell...)} }},
	{"forecast", func(in *input) query.Request {
		return query.ForecastRequest{CellRef: query.OCell(in.oCell...), Horizon: 60}
	}},
	{"changes", func(*input) query.Request { return query.ChangesRequest{K: 8} }},
}

// queryCycle is the issuer's request mix: every kind alone, then one
// batch of three answered from a single snapshot.
func queryCycle(in *input) [][]client.Request {
	var cycle [][]client.Request
	for _, k := range queryKinds {
		cycle = append(cycle, []client.Request{k.req(in)})
	}
	return append(cycle, []client.Request{query.SummaryRequest{}, query.ExceptionsRequest{K: 4}, query.AlertsRequest{}})
}

// system is a set-up system under test, warmed and ready for the window.
type system struct {
	w        workload
	l        launcher
	in       *input
	dir      string
	nodes    []*proc
	nodeAPIs []string
	settings []nodeSettings
	router   *proc // nil for a single node
	feed     io.WriteCloser
	queryURL string
	api      *client.Client
	hc       *http.Client
	enc      encoder
	sent     int64 // records written so far
}

// procs lists every program of the system.
func (s *system) procs() []*proc {
	if s.router != nil {
		return append([]*proc{s.router}, s.nodes...)
	}
	return s.nodes
}

// teardown closes the feed, kills every program and removes the run's
// state. Safe on a partly set-up system.
func (s *system) teardown() {
	if s.feed != nil {
		s.feed.Close()
	}
	for _, p := range s.procs() {
		p.kill()
	}
	os.RemoveAll(s.dir)
}

// setUp generates the input, starts the programs, ingests the warm-up
// units at full rate and waits until the query endpoint serves them —
// everything setup_s covers. root holds the run's temporary state.
func setUp(w workload, seed int64, l launcher, root string) (_ *system, err error) {
	s := &system{w: w, l: l}
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()
	if s.dir, err = os.MkdirTemp(root, w.name+"-"); err != nil {
		return nil, err
	}
	if s.in, err = newInput(w.spec, w.cells, w.ticksPerUnit, w.slopeSigma, seed); err != nil {
		return nil, err
	}
	s.enc.in = s.in
	var ingest []string
	for i := 0; i < w.nodes; i++ {
		st := nodeSettings{w: w, id: strconv.Itoa(i),
			walDir:     filepath.Join(s.dir, fmt.Sprintf("wal-%d", i)),
			checkpoint: filepath.Join(s.dir, fmt.Sprintf("state-%d.json", i))}
		p, addr, api, err := l.startNode(st, s.dir)
		if err != nil {
			return nil, err
		}
		s.nodes, s.settings = append(s.nodes, p), append(s.settings, st)
		s.nodeAPIs, ingest = append(s.nodeAPIs, api), append(ingest, addr)
	}
	s.queryURL = s.nodeAPIs[0]
	if w.nodes > 1 {
		if s.router, s.queryURL, err = l.startRouter(w, s.dir, ingest, s.nodeAPIs); err != nil {
			return nil, err
		}
		s.feed = s.router.stdin
	} else if s.feed, err = net.Dial("tcp", ingest[0]); err != nil {
		return nil, err
	}
	// One keep-alive connection, no retries: a refused or slow query is a
	// failed query, not something to paper over.
	s.hc = &http.Client{Timeout: 2 * lateQuery, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if s.api, err = client.New(client.WithEndpoints(s.queryURL), client.WithHTTPClient(s.hc), client.WithRetries(0)); err != nil {
		return nil, err
	}

	if _, err = s.feed.Write(s.enc.header()); err != nil {
		return nil, err
	}
	cuts := s.in.cuts(false)
	for u := int64(0); u < int64(w.warmUnits); u++ {
		if err = s.writeFrames(u, cuts, nil); err != nil {
			return nil, err
		}
	}
	// The barrier closes the last warm-up unit now, so the window starts
	// with an empty pipeline; the window's first record would close it at
	// the same stream position anyway.
	if _, err = s.feed.Write(s.enc.advance(int64(w.warmUnits))); err != nil {
		return nil, err
	}
	if _, err = s.reported(int64(w.warmUnits)-1, 60*time.Second); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		h, err := s.api.Health(context.Background())
		if err == nil && h.Serving && h.UnitsDone >= int64(w.warmUnits) {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: query endpoint not serving unit %d after warm-up (last: %+v, %v)", w.name, w.warmUnits-1, h, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeFrames encodes and writes the unit's records cut at the given
// boundaries, one frame per consecutive pair. With encodeMs set it
// records how long each frame took to encode — in a closed loop, time the
// system could have been fed: that frame's lateness.
func (s *system) writeFrames(unit int64, cuts []int, encodeMs *[]float64) error {
	for i := 0; i+1 < len(cuts); i++ {
		t0 := time.Now()
		frame := s.enc.frame(unit, cuts[i], cuts[i+1])
		if encodeMs != nil {
			*encodeMs = append(*encodeMs, float64(time.Since(t0))/1e6)
		}
		if _, err := s.feed.Write(frame); err != nil {
			return err
		}
		s.sent += int64(cuts[i+1] - cuts[i])
	}
	return nil
}

// reported waits until every node has printed the unit's report line and
// returns the latest arrival.
func (s *system) reported(unit int64, timeout time.Duration) (time.Time, error) {
	var last time.Time
	for _, p := range s.nodes {
		t, err := p.unitReported(unit, timeout)
		if err != nil {
			return time.Time{}, err
		}
		if t.After(last) {
			last = t
		}
	}
	return last, nil
}

// cpuSeconds sums the CPU time of the given pids.
func cpuSeconds(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// sutPids lists the distinct pids of the system's programs (in-process
// programs all share this process's pid).
func (s *system) sutPids() []int {
	var pids []int
	seen := map[int]bool{}
	for _, p := range s.procs() {
		if !seen[p.pid] {
			seen[p.pid] = true
			pids = append(pids, p.pid)
		}
	}
	return pids
}

// querySample is one issued query.
type querySample struct {
	due, done time.Time
	unit      int64
	ok        bool
}

// window is what one measured window observed.
type window struct {
	first, last int64       // window units [first, last]
	trigger     []time.Time // trigger[k]: due time of the record that closes unit first+k
	start, end  time.Time   // first window byte → last unit's report line
	records     int64       // records of the window units (not the trailing tick)
	lateMs      []float64   // how late each tick (paced) or frame (closed loop) was written
	reportMs    []float64   // trigger → report line, per unit
	queries     []querySample
	sutCPU      float64 // CPU seconds of all SUT processes over the window
	genCPU      float64 // CPU seconds of this process over the window
	unsustained bool
	backlogMs   float64 // paced only: lateness growth from the first to the last tenth of the window
}

// runWindow drives the measured window: the feeder (closed loop, or one
// tick per period) and the query issuer, one goroutine each.
func (s *system) runWindow(seconds float64) (*window, error) {
	w, in := s.w, s.in
	win := &window{first: int64(w.warmUnits)}
	pids := s.sutPids()
	cpu0, err := cpuSeconds(pids)
	if err != nil {
		return nil, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}

	win.start = time.Now()
	stop := make(chan struct{})
	issued := make(chan []querySample, 1) // the issuer's one result
	go func() { issued <- s.issueQueries(win.start, stop) }()
	stopIssuer := func() []querySample { close(stop); return <-issued }

	if err := s.feedWindow(win, seconds); err != nil {
		stopIssuer()
		return nil, fmt.Errorf("feeder: %w", err)
	}
	win.records = (win.last - win.first + 1) * int64(in.unitRecords())

	// Per-unit report latency, and the end of the window: the last window
	// unit's report line.
	for u := win.first; u <= win.last; u++ {
		t, err := s.reported(u, 60*time.Second)
		if err != nil {
			stopIssuer()
			return nil, err
		}
		win.reportMs = append(win.reportMs, float64(t.Sub(win.trigger[u-win.first]))/1e6)
		win.end = t
	}
	cpu1, err1 := cpuSeconds(pids)
	self1, err2 := procCPU(os.Getpid())
	// Let the issuer see the last unit, then stop it.
	time.Sleep(4*w.queryEvery + 50*time.Millisecond)
	win.queries = stopIssuer()
	if err1 != nil {
		return nil, err1
	}
	if err2 != nil {
		return nil, err2
	}
	win.sutCPU, win.genCPU = cpu1-cpu0, self1-self0

	if w.paced() {
		// A system that cannot keep up shows as lateness that grows across
		// the window: the feeder's once the socket buffers are full, the
		// report lines' seconds earlier. More than one unit period of
		// growth from the first to the last tenth is a backlog.
		growth := func(xs []float64) float64 {
			tenth := max(1, len(xs)/10)
			return median(xs[len(xs)-tenth:]) - median(xs[:tenth])
		}
		win.backlogMs = max(growth(win.reportMs), growth(win.lateMs))
		win.unsustained = win.backlogMs > w.tickEvery.Seconds()*1e3*float64(w.ticksPerUnit)
	}
	return win, nil
}

// feedWindow is the feeder: whole units back to back until the window's
// seconds have passed (closed loop), or one tick per period for as many
// whole units as fit (open loop, timed from each tick's due time). The
// close trigger of a unit is the first record of the next; the last
// window unit gets a trailing tick of one more unit — a real record, not
// a barrier, so a WAL replay closes the same unit.
func (s *system) feedWindow(win *window, seconds float64) error {
	w, in := s.w, s.in
	tickCuts := in.cuts(true)
	perTick := (len(tickCuts) - 1) / in.ticksPerUnit
	tick := 0
	writeTick := func(unit int64, t int) error {
		if w.paced() {
			due := win.start.Add(time.Duration(tick) * w.tickEvery)
			tick++
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			win.lateMs = append(win.lateMs, float64(time.Since(due))/1e6)
			if t == 0 && unit > win.first {
				win.trigger = append(win.trigger, due)
			}
		}
		return s.writeFrames(unit, tickCuts[t*perTick:(t+1)*perTick+1], nil)
	}
	unit := win.first
	if w.paced() {
		units := max(1, int(seconds/(w.tickEvery.Seconds()*float64(in.ticksPerUnit))))
		for ; unit < win.first+int64(units); unit++ {
			for t := 0; t < in.ticksPerUnit; t++ {
				if err := writeTick(unit, t); err != nil {
					return err
				}
			}
		}
	} else {
		unitCuts := in.cuts(false)
		for ; unit == win.first || time.Since(win.start).Seconds() < seconds; unit++ {
			// Set-up has already seen every warm-up unit reported.
			if u := unit - closedLoopLead; u >= win.first {
				if _, err := s.reported(u, 60*time.Second); err != nil {
					return err
				}
			}
			if unit > win.first {
				win.trigger = append(win.trigger, time.Now())
			}
			if err := s.writeFrames(unit, unitCuts, &win.lateMs); err != nil {
				return err
			}
		}
		win.trigger = append(win.trigger, time.Now())
	}
	win.last = unit - 1
	return writeTick(unit, 0)
}

// issueQueries is the open-loop query issuer: query j is due at start +
// j·period and is timed from then; when the issuer falls behind it sends
// at once, so a stall delays — and is charged to — every query behind it.
func (s *system) issueQueries(start time.Time, stop <-chan struct{}) []querySample {
	cycle := queryCycle(s.in)
	var out []querySample
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * s.w.queryEvery)
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(due)): // at once when the issuer is behind
		}
		q := querySample{due: due, unit: -1}
		if s.w.probe {
			h, err := s.api.Health(context.Background())
			q.done = time.Now()
			if err == nil && h.Serving {
				q.ok, q.unit = true, h.Unit
			}
		} else {
			reply, err := s.api.Batch(context.Background(), cycle[j%len(cycle)]...)
			q.done = time.Now()
			if err == nil {
				q.ok, q.unit = true, reply.Unit
				for _, r := range reply.Results {
					if r.Err != nil {
						q.ok = false
					}
				}
			}
		}
		out = append(out, q)
	}
}

// visibleMs turns the query samples into per-unit visibility latencies:
// close trigger due → completion of the first successful query reporting
// that unit or a later one.
func (win *window) visibleMs() []float64 {
	var out []float64
	next := win.first
	for _, q := range win.queries {
		if !q.ok {
			continue
		}
		for ; next <= min(q.unit, win.last); next++ {
			out = append(out, float64(q.done.Sub(win.trigger[next-win.first]))/1e6)
		}
	}
	return out
}

// check is one verification of the run's outputs.
type check struct {
	name string
	ok   bool
	note string
}

// verify checks record conservation, the closed-unit count and — against
// an in-process single-shard engine fed the last window unit — the
// summary and exception set the system serves for that unit. rejected is
// the number of sent records the nodes did not count.
func (s *system) verify(win *window) (checks []check, rejected int64, busDropped float64) {
	wantUnits := win.last + 1
	if s.router != nil {
		// The router holds a node's records until a frame fills or a
		// barrier passes; the end of its input flushes the trailing tick.
		s.feed.Close()
	}
	// The trailing tick's later frames, and on a cluster the coordinator's
	// gather, may still be in flight: poll briefly before judging.
	var accepted int64
	var units int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		accepted, busDropped = 0, 0
		var scrapeErr error
		for _, api := range s.nodeAPIs {
			recs, dropped, err := s.scrape(api)
			if err != nil {
				scrapeErr = err
			}
			accepted += recs
			busDropped += dropped
		}
		h, err := s.api.Health(context.Background())
		if err == nil {
			units = h.UnitsDone
		}
		if (scrapeErr == nil && err == nil && accepted == s.sent && units == wantUnits) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	rejected = s.sent - accepted
	if rejected < 0 {
		rejected = -rejected
	}
	checks = append(checks,
		check{"records_conserved", accepted == s.sent, fmt.Sprintf("sent %d, nodes counted %d", s.sent, accepted)},
		check{"units_done", units == wantUnits, fmt.Sprintf("want %d, /healthz says %d", wantUnits, units)})
	return append(checks, s.verifyLastUnit(win.last, "live")...), rejected, busDropped
}

// scrape reads a node's /metrics: binary TCP records counted, snapshots
// the bus shed.
func (s *system) scrape(api string) (records int64, busDropped float64, err error) {
	resp, err := s.hc.Get(api + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case `regcube_ingest_records_total{format="binary",source="tcp"}`:
			records, err = strconv.ParseInt(val, 10, 64)
		case "regcube_snapshot_bus_dropped_total":
			busDropped, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
	}
	return records, busDropped, nil
}

// lastUnitQueries is what verifyLastUnit asks: the summary, and every
// exception in canonical key order.
var lastUnitQueries = query.Wrap(query.SummaryRequest{}, query.ExceptionsRequest{Order: query.OrderKey})

// verifyLastUnit compares the served summary and exception set of a unit
// with a single-shard engine fed the same records. The exception set must
// match byte for byte; the summary must match byte for byte once its
// stats block is dropped (wall-clock phase times, and tree-node counts
// that sum per shard, are not functions of the input).
func (s *system) verifyLastUnit(unit int64, phase string) []check {
	name := func(what string) string { return what + "_" + phase }
	fail := func(err error) []check {
		return []check{{name("summary"), false, err.Error()}, {name("exceptions"), false, err.Error()}}
	}
	body, err := json.Marshal(query.BatchRequest{Queries: lastUnitQueries})
	if err != nil {
		return fail(err)
	}
	resp, err := s.hc.Post(s.queryURL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	var got query.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return fail(err)
	}
	want, err := referenceUnit(s.in, unit)
	if err != nil {
		return fail(err)
	}
	if got.Unit != unit || len(got.Results) != 2 || len(want.Results) != 2 {
		return fail(fmt.Errorf("served unit %d with %d results, want unit %d", got.Unit, len(got.Results), unit))
	}
	gotSum, err1 := summaryWithoutStats(got.Results[0].Result)
	wantSum, err2 := summaryWithoutStats(want.Results[0].Result)
	if err1 != nil || err2 != nil {
		return fail(fmt.Errorf("decoding summaries: %v, %v", err1, err2))
	}
	return []check{
		{name("summary"), bytes.Equal(gotSum, wantSum), fmt.Sprintf("%d bytes served, %d expected", len(gotSum), len(wantSum))},
		{name("exceptions"), bytes.Equal(got.Results[1].Result, want.Results[1].Result),
			fmt.Sprintf("%d bytes served, %d expected", len(got.Results[1].Result), len(want.Results[1].Result))},
	}
}

// summaryWithoutStats re-encodes a summary response without its stats.
func summaryWithoutStats(raw []byte) ([]byte, error) {
	var sum query.SummaryResponse
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, err
	}
	sum.Stats = nil
	return json.Marshal(&sum)
}

// referenceUnit answers lastUnitQueries from a fresh single-shard engine
// that closed every earlier unit empty and then ingested this unit's
// records: unit index, interval and units-done match the live system, and
// the unit's cube is a function of its records alone.
func referenceUnit(in *input, unit int64) (*query.BatchResponse, error) {
	e, err := stream.NewEngine(stream.Config{
		Schema: in.schema, TicksPerUnit: in.ticksPerUnit,
		Threshold: exception.Global(1), PublishSnapshots: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := e.AdvanceTo(unit); err != nil {
		return nil, err
	}
	var b wire.Batch
	in.frame(&b, unit, 0, in.unitRecords())
	if _, err := e.IngestBatch(&b); err != nil {
		return nil, err
	}
	if _, err := e.AdvanceTo(unit + 1); err != nil {
		return nil, err
	}
	ex, err := query.NewExecutor(in.schema, e.Snapshot())
	if err != nil {
		return nil, err
	}
	return ex.ExecuteBatch(lastUnitQueries), nil
}

// recover ends the run's node the hard way and times how long a restart
// takes to serve again. A durable node is killed, loses its checkpoint
// and must replay the whole WAL to the pre-kill unit count, after which
// the last unit is verified again (replay == live). A node without a WAL
// has nothing to recover; its figure is the bare restart.
func (s *system) recover(win *window) (seconds float64, checks []check, err error) {
	wantUnits := int64(0)
	st := s.settings[0]
	if s.w.durable {
		wantUnits = win.last + 1
		s.feed.Close()
		s.nodes[0].kill()
		if err := os.Remove(st.checkpoint); err != nil {
			return 0, nil, err
		}
	} else {
		st.id = "restart"
	}
	t0 := time.Now()
	p, _, api, err := s.l.startNode(st, s.dir)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if !s.w.durable {
			p.kill()
		}
	}()
	if s.w.durable {
		s.nodes[0], s.nodeAPIs[0], s.queryURL = p, api, api
	}
	c, err := client.New(client.WithEndpoints(api), client.WithHTTPClient(s.hc), client.WithRetries(0))
	if err != nil {
		return 0, nil, err
	}
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.UnitsDone >= wantUnits {
			break
		}
		if time.Since(t0) > 120*time.Second {
			return 0, nil, fmt.Errorf("restart never reported %d units (last: %+v, %v)", wantUnits, h, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	seconds = time.Since(t0).Seconds()
	if s.w.durable {
		checks = s.verifyLastUnit(win.last, "replayed")
	}
	return seconds, checks, nil
}
