package stream

import (
	"cmp"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
)

// ingestBatchSize is how many records per-record Ingest gathers in the
// open segment before dispatching it, to amortize the channel handoff
// (every unit boundary, query and checkpoint dispatches it first, so
// nothing depends on it). IngestBatch dispatches each in-unit run at once.
const ingestBatchSize = 512

// runAhead is how many segments an engine has, and so how far the
// coordinator runs ahead of its slowest shard: with all of them in flight
// the next Ingest or IngestBatch waits for one to come back. Three keeps
// the shards fed while the next segment is coded and copied; more buys
// throughput with query latency (DESIGN §11.3) — a constant, not a setting.
const runAhead = 3

// segment is one in-unit run of records in engine-owned columns — the copy
// is what lets an IngestBatch caller reuse its batch the moment the call
// returns — plus, per shard, the positions of the records that shard owns
// and the codes of the cells it sees first in this segment: shards read
// the columns in place through their list. left counts the shards still
// reading; the one that takes it to zero hands the segment back to the
// coordinator.
type segment struct {
	ticks  []int64
	values []float64
	ords   []int32    // ords[i] is record i's cell's ordinal in its shard
	sel    [][]int32  // sel[i] lists shard i's record positions, ascending
	fresh  [][]uint64 // fresh[i] holds the codes of shard i's new cells, in ordinal order
	left   atomic.Int32
}

// shardReply carries a control operation's outcome back to the
// coordinator.
type shardReply struct {
	val any
	err error
}

// shardMsg is one message to a shard goroutine: a segment to read the
// shard's selection of (seg, fire-and-forget) or a control operation (fn,
// answered on reply). reset clears the shard's sticky error first — only
// Restore sets it, because restoring replaces the state the error poisoned.
type shardMsg struct {
	seg   *segment
	fn    func(*Engine) (any, error)
	reply chan shardReply
	reset bool
}

// shard is the coordinator's handle on one partition's Engine. With
// several shards each engine is confined to its own goroutine behind in;
// the sole shard of a one-shard engine has no goroutine (in, done and
// segFree are nil) and send handles its messages on the caller's. Only
// this transport differs between shard counts.
type shard struct {
	id  int
	eng *Engine
	// sticky is the first record error; it fails every later message
	// until Restore replaces the state it poisoned.
	sticky  error
	in      chan shardMsg
	done    chan struct{}
	segFree chan *segment // takes back segments this shard was last to read
}

// ShardedEngine partitions the online analyzer (§4.5) across N independent
// per-shard Engines, each confined to its own goroutine and fed over a
// channel — share memory by communicating; no locks on the hot path.
//
// The partition function is the m-layer cell's o-layer ancestor: every
// record hashes by the o-level member tuple its members roll up to. Because
// roll-up is per-dimension hierarchical, all m-cells below one o-cell — and
// therefore every cell of every cuboid between the critical layers that
// aggregates them — live in exactly one shard. Per-shard cube results are
// disjoint and union to precisely the single-engine result: the merged
// o-layer, exception sets, drill-downs and per-o-cell frames are identical (bitwise, thanks to the canonical aggregation order) to
// what one Engine would produce from the same stream, alert order (unit,
// then cube.CompareKeys on the cell, then kind) included.
//
// Unit boundaries are the only synchronization points: a record crossing
// the open unit's end makes the coordinator dispatch the open segment,
// close the finished units on every shard in parallel, and merge the
// per-shard results in shard-stable order. Between boundaries the shards
// read their selections of the dispatched segments concurrently.
//
// Like Engine, a ShardedEngine's methods must be called from one goroutine
// (the issue is the coordinator state, not the shards). Record errors that
// surface inside a shard (per-cell tick regressions) are reported at the
// next unit boundary, query, or Flush rather than on the call that carried
// the bad record; the first error sticks and fails all subsequent calls.
// An out-of-range member is refused by the call that carried it, before
// any record of its run is ingested, at every shard count; that refusal
// does not stick.
//
// With one shard there is nothing to route: records skip the segments and
// reach the shard's Engine on the caller's goroutine, which numbers its
// cells with its own dictionary, so the engine is single-threaded and a
// record error comes back from the very call that carried the record (and
// sticks all the same).
type ShardedEngine struct {
	cfg    Config
	shards []*shard
	// part is the o-ancestor partition function the multi-node router
	// (internal/cluster) shares, so shards and nodes route identically.
	// dict is the cell dictionary that routes records through it and
	// numbers each shard's cells — the sole shard's own with one shard.
	// cellsActive is its size when the last barrier emptied it.
	part        *Partitioner
	dict        *cellDict
	cellsActive atomic.Int64
	// openEnd caches unitStart(unit+1) so the per-record boundary test is
	// one comparison.
	openEnd int64
	// open is the segment being filled (nil when none is): Ingest appends
	// records to it, IngestBatch whole runs, dispatch hands it to the
	// shards. segFree holds the segments neither open nor in flight; the
	// same runAhead circulate, so steady-state ingest allocates nothing.
	open    *segment
	segFree chan *segment
	// segments counts dispatched segments; runaheadWaits the times the
	// coordinator found every segment in flight and had to wait for a shard.
	segments      atomic.Int64
	runaheadWaits atomic.Int64
	unit          int64
	done          int64
	err           error
	closed        bool
	// snap is the coordinator's published merged snapshot
	// (cfg.PublishSnapshots). The per-shard engines run with publication
	// off; the coordinator collects their frame copies at each barrier
	// and publishes one merged snapshot instead. bus broadcasts the same
	// merged values push-side to subscribers (Subscribe).
	snap atomic.Pointer[Snapshot]
	bus  snapBus
	// cpMerged is the list AppendCheckpoint merges the shards' parts into.
	cpMerged Checkpoint
}

// NewShardedEngine builds a sharded analyzer with `shards` partitions. Each
// shard runs the exact Config the single engine would; shards must be ≥ 1.
// Call Close when done to stop the shard goroutines (Flush first for the
// final partial unit). Parallelism is bounded by the number of distinct
// o-layer cells: a schema whose o-layer is the apex cuboid has a single
// partition and degrades to one active shard.
func NewShardedEngine(cfg Config, shards int) (*ShardedEngine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrConfig, shards)
	}
	s := &ShardedEngine{cfg: cfg, shards: make([]*shard, shards)}
	// Shard engines never publish their own snapshots: a per-shard view
	// would expose partial units, and the coordinator merges frames at
	// each barrier anyway.
	shardCfg := cfg
	shardCfg.PublishSnapshots = false
	for i := range s.shards {
		eng, err := NewEngine(shardCfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{id: i, eng: eng}
	}
	s.cfg = s.shards[0].eng.cfg // normalized (level chain)
	s.cfg.PublishSnapshots = cfg.PublishSnapshots
	var err error
	if s.part, err = NewPartitioner(cfg.Schema, shards); err != nil {
		return nil, err
	}
	s.openEnd = s.unitStart(1)
	if shards == 1 {
		s.dict = s.shards[0].eng.dict
		return s, nil // the sole shard runs on the caller's goroutine
	}
	s.dict = newCellDict(&s.part.layout, s.part)
	for _, sh := range s.shards {
		sh.eng.dict = nil // the coordinator numbers the shards' cells
	}
	s.segFree = make(chan *segment, runAhead)
	for i := 0; i < runAhead; i++ {
		s.segFree <- &segment{}
	}
	for _, sh := range s.shards {
		// Room for every segment plus a control message, so the
		// coordinator never blocks on the channel itself.
		sh.segFree, sh.in, sh.done = s.segFree, make(chan shardMsg, runAhead+1), make(chan struct{})
		go sh.run()
	}
	return s, nil
}

// run is the shard goroutine.
func (sh *shard) run() {
	defer close(sh.done)
	for msg := range sh.in {
		sh.handle(msg)
	}
}

// send delivers one message: over the channel, or straight to handle.
func (sh *shard) send(msg shardMsg) {
	if sh.in == nil {
		sh.handle(msg)
		return
	}
	sh.in <- msg
}

// handle processes one message: read this shard's selection of a segment
// into the engine, or answer a control operation. The last shard done with
// a segment — had a sticky error made it skip the records or not — returns
// it; segFree and the reply channels have room, so neither send blocks.
func (sh *shard) handle(msg shardMsg) {
	if seg := msg.seg; seg != nil {
		if sh.sticky == nil {
			sh.sticky = sh.eng.ingestSegment(seg, seg.fresh[sh.id], seg.sel[sh.id])
		}
		if seg.left.Add(-1) == 0 {
			sh.segFree <- seg
		}
		return
	}
	if msg.reset {
		sh.sticky = nil
	}
	if sh.sticky != nil {
		msg.reply <- shardReply{err: sh.sticky}
		return
	}
	val, err := msg.fn(sh.eng)
	msg.reply <- shardReply{val: val, err: err}
}

// Shards returns the shard count.
func (s *ShardedEngine) Shards() int { return len(s.shards) }

// Unit returns the index of the currently open unit.
func (s *ShardedEngine) Unit() int64 { return s.unit }

// UnitsDone returns how many units have been closed.
func (s *ShardedEngine) UnitsDone() int64 { return s.done }

func (s *ShardedEngine) unitStart(u int64) int64 {
	return s.cfg.StartTick + u*int64(s.cfg.TicksPerUnit)
}

// openSegment returns the segment being filled, taking a free one when
// none is — and waiting for the shards to hand one back when all are in
// flight, which is what bounds the run-ahead. A buffer far larger than
// both what it last held and the n records about to be added is dropped
// for a fresh one, so one huge batch does not pin its columns and
// position lists for the engine's life.
func (s *ShardedEngine) openSegment(n int) *segment {
	if s.open != nil {
		return s.open
	}
	if len(s.segFree) == 0 { // only this goroutine takes from it
		s.runaheadWaits.Add(1)
	}
	seg := <-s.segFree
	if cap(seg.ticks) > 4*max(n, len(seg.ticks))+1024 {
		seg = &segment{}
	}
	seg.ticks, seg.values, seg.ords = seg.ticks[:0], seg.values[:0], seg.ords[:0]
	if seg.sel == nil {
		seg.sel, seg.fresh = make([][]int32, len(s.shards)), make([][]uint64, len(s.shards))
	}
	for i := range seg.sel {
		seg.sel[i], seg.fresh[i] = seg.sel[i][:0], seg.fresh[i][:0]
	}
	s.open = seg
	return seg
}

// dispatch hands the open segment to every shard that owns records of it;
// shard channels are FIFO, so a later control message arrives behind it.
func (s *ShardedEngine) dispatch() {
	seg := s.open
	if seg == nil || len(seg.ticks) == 0 {
		return
	}
	s.open = nil
	s.segments.Add(1)
	readers := int32(0)
	for _, sel := range seg.sel {
		if len(sel) > 0 {
			readers++
		}
	}
	seg.left.Store(readers)
	for i, sel := range seg.sel {
		if len(sel) > 0 {
			s.shards[i].send(shardMsg{seg: seg})
		}
	}
}

// CellsActive returns the cell dictionary's size when the last unit
// barrier emptied it: the distinct m-cells the open unit held then, summed
// over shards. Safe from any goroutine.
func (s *ShardedEngine) CellsActive() int64 { return s.cellsActive.Load() }

// DispatchStats returns how many segments went to the shards (with one
// shard: were ingested in place) and how often the coordinator found all
// of them in flight and waited. Safe from any goroutine.
func (s *ShardedEngine) DispatchStats() (segments, runaheadWaits int64) {
	return s.segments.Load(), s.runaheadWaits.Load()
}

// ready guards every public operation behind the closed/sticky-error state.
func (s *ShardedEngine) ready() error {
	if s.closed {
		return fmt.Errorf("%w: engine closed", ErrConfig)
	}
	return s.err
}

// scatter dispatches the open segment, runs fn on every shard concurrently
// (fn gets the shard's index) and returns the replies in shard order. The
// first error becomes sticky; reset clears each shard's sticky error first
// (see shardMsg).
func (s *ShardedEngine) scatter(reset bool, fn func(int, *Engine) (any, error)) ([]any, error) {
	s.dispatch()
	replies := make([]chan shardReply, len(s.shards))
	for i, sh := range s.shards {
		ch := make(chan shardReply, 1)
		replies[i] = ch
		sh.send(shardMsg{fn: func(e *Engine) (any, error) { return fn(i, e) }, reply: ch, reset: reset})
	}
	out := make([]any, len(s.shards))
	var firstErr error
	for i, ch := range replies {
		rep := <-ch
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
		out[i] = rep.val
	}
	if firstErr != nil {
		s.err = firstErr
		return nil, firstErr
	}
	return out, nil
}

// reach makes tick's unit the open one, closing every unit before it and
// returning their merged results; a tick before the open unit is ErrRecord.
func (s *ShardedEngine) reach(tick int64) (closed []*UnitResult, err error) {
	if tick >= s.openEnd {
		closed, err = s.advanceTo((tick - s.cfg.StartTick) / int64(s.cfg.TicksPerUnit))
	}
	if start := s.openEnd - int64(s.cfg.TicksPerUnit); err == nil && tick < start {
		err = fmt.Errorf("%w: tick %d before open unit start %d", ErrRecord, tick, start)
	}
	return closed, err
}

// Ingest consumes one record with Engine.Ingest semantics: crossing a unit
// boundary closes the finished units on every shard and returns the merged
// results in order. An out-of-range member fails here, after boundary
// handling; the record waits in the open segment until ingestBatchSize
// records share it. Per-cell validation happens inside the owning shard,
// and its errors surface at the next boundary.
func (s *ShardedEngine) Ingest(members []int32, tick int64, value float64) ([]*UnitResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if len(members) != s.part.layout.nd {
		return nil, fmt.Errorf("%w: %d members for %d dimensions", ErrRecord, len(members), s.part.layout.nd)
	}
	closed, err := s.reach(tick)
	if err != nil {
		return closed, err
	}
	if len(s.shards) == 1 {
		_, err := s.shards[0].eng.Ingest(members, tick, value) // reach closed the units before tick's
		if err != nil {
			if _, bad := s.part.layout.code(members); bad < 0 {
				s.err = err // sticky at once, as a shard's own errors are; a refused member is not
			}
		}
		return closed, err
	}
	code, bad := s.part.layout.code(members)
	if bad >= 0 {
		return closed, s.part.layout.rangeErr(bad, members[bad])
	}
	seg := s.openSegment(1) // routeSegment's step, for one record
	c := s.dict.slot(code)
	if c.key == 0 {
		c = s.dict.add(c, code)
		seg.fresh[c.part] = append(seg.fresh[c.part], code)
	}
	seg.sel[c.part] = append(seg.sel[c.part], int32(len(seg.ords)))
	seg.ords, seg.ticks, seg.values = append(seg.ords, c.ord), append(seg.ticks, tick), append(seg.values, value)
	if len(seg.ticks) >= ingestBatchSize {
		s.dispatch()
	}
	return closed, nil
}

// shardAdvance is one shard's reply to an advanceTo barrier: its closed
// units plus, when snapshots are on, a copy of its frame views after each
// closed unit (frames[u] reflects state just after urs[u] closed).
type shardAdvance struct {
	urs    []*UnitResult
	frames []map[cube.CellKey]*FrameView
}

// advanceTo closes units up to (excluding) target on every shard in
// parallel and merges the per-unit results. With snapshots on, the barrier
// collects each shard's per-unit frame copies and publishes one merged
// Snapshot per closed unit — the same sequence a single Engine publishes,
// so bus subscribers observe an identical snapshot stream at any shard
// count (pull-side Snapshot() callers see the last one either way).
func (s *ShardedEngine) advanceTo(target int64) ([]*UnitResult, error) {
	n := int(target - s.unit)
	publish := s.cfg.PublishSnapshots
	s.cellsActive.Store(int64(s.dict.n))
	vals, err := s.scatter(false, func(_ int, e *Engine) (any, error) {
		var adv shardAdvance
		for e.unit < target {
			ur, err := e.closeUnit()
			if err != nil {
				return nil, err
			}
			adv.urs = append(adv.urs, ur)
			if publish {
				// Copied inside the shard goroutine, unit by unit, so the
				// copies are exact per unit and never race with the
				// shard's own later units.
				adv.frames = append(adv.frames, e.snapshotFrames())
			}
		}
		return adv, nil
	})
	if err != nil {
		return nil, err
	}
	perShard := make([]shardAdvance, len(vals))
	for i, v := range vals {
		adv, _ := v.(shardAdvance)
		if len(adv.urs) != n {
			s.err = fmt.Errorf("%w: shard %d closed %d units, want %d", ErrConfig, i, len(adv.urs), n)
			return nil, s.err
		}
		perShard[i] = adv
	}
	out := make([]*UnitResult, n)
	for u := 0; u < n; u++ {
		shardURs := make([]*UnitResult, len(perShard))
		for i := range perShard {
			shardURs[i] = perShard[i].urs[u]
		}
		out[u] = s.mergeUnit(shardURs)
	}
	s.unit = target
	s.openEnd = s.unitStart(target + 1)
	s.dict.reset() // the shards emptied their slabs
	if publish {
		for u := 0; u < n; u++ {
			// Shards own disjoint o-cells, so the merged frame set is a
			// union — a sole shard's is the set itself.
			frames := perShard[0].frames[u]
			for _, adv := range perShard[1:] {
				maps.Copy(frames, adv.frames[u])
			}
			ur := out[u]
			snap := &Snapshot{
				Unit:      ur.Unit,
				Interval:  ur.Interval,
				UnitsDone: s.done + int64(u) + 1,
				// The clone keeps readers isolated from whatever the Ingest
				// caller does with the returned UnitResult's slices.
				Alerts: cloneAlerts(ur.Alerts),
				Result: ur.Result,
				Frames: frames,
			}
			s.snap.Store(snap)
			s.bus.publish(snap)
		}
	}
	s.done += int64(n)
	return out, nil
}

// mergeUnit combines one unit's per-shard results: the cube results union
// (unionResults), and since each shard's alerts arrive in canonical order
// with their drills complete (finished inside the shard goroutine), the
// merged list is a k-way merge.
func (s *ShardedEngine) mergeUnit(urs []*UnitResult) *UnitResult {
	merged := &UnitResult{Unit: urs[0].Unit, Interval: urs[0].Interval}
	results := make([]*core.Result, len(urs))
	alerts := make([][]Alert, len(urs))
	for i, ur := range urs {
		results[i], alerts[i] = ur.Result, ur.Alerts
	}
	merged.Result = unionResults(s.cfg.Schema, results)
	if merged.Result != nil {
		merged.Alerts = mergeAlerts(alerts)
	}
	return merged
}

// unionResults merges the cube results of one unit computed over disjoint
// partitions (shards here, cluster nodes in MergeSnapshots); nil entries
// are partitions that closed empty, and all-nil yields nil. A sole
// non-empty part is the union and is returned as is — the whole story at
// one shard. Otherwise cell maps are disjoint by the partition invariant,
// so merging is a union into maps sized once from the part sizes; stats
// fold through mergeStats.
func unionResults(schema *cube.Schema, parts []*core.Result) *core.Result {
	var oCells, exceptions, nonEmpty int
	var sole *core.Result
	for _, r := range parts {
		if r != nil {
			nonEmpty++
			sole = r
			oCells += len(r.OLayer)
			exceptions += len(r.Exceptions)
		}
	}
	if nonEmpty <= 1 {
		return sole
	}
	res := &core.Result{
		Schema:     schema,
		OLayer:     make(map[cube.CellKey]regression.ISB, oCells),
		Exceptions: make(map[cube.CellKey]regression.ISB, exceptions),
	}
	first := true
	for _, r := range parts {
		if r == nil {
			continue
		}
		for k, v := range r.OLayer {
			res.OLayer[k] = v
		}
		for k, v := range r.Exceptions {
			res.Exceptions[k] = v
		}
		mergeStats(&res.Stats, &r.Stats, first)
		first = false
	}
	return res
}

// mergeStats folds one shard's cube statistics into the merged result.
// Additive counters sum — including the peak estimates, since concurrent
// shards can peak simultaneously and the sum is the safe whole-process
// bound. Wall-clock phases take the maximum (shards run in parallel), and
// per-cuboid counts too, since every shard walks the same lattice.
func mergeStats(dst *core.Stats, src *core.Stats, first bool) {
	if first {
		*dst = *src
		return
	}
	dst.Tuples += src.Tuples
	dst.TreeNodes += src.TreeNodes
	dst.TreeLeaves += src.TreeLeaves
	dst.CellsComputed += src.CellsComputed
	dst.CellsRetained += src.CellsRetained
	dst.BytesRetained += src.BytesRetained
	dst.PeakScratchCells += src.PeakScratchCells
	dst.PeakBytes += src.PeakBytes
	if src.CuboidsComputed > dst.CuboidsComputed {
		dst.CuboidsComputed = src.CuboidsComputed
	}
	if src.BuildTime > dst.BuildTime {
		dst.BuildTime = src.BuildTime
	}
	if src.CubeTime > dst.CubeTime {
		dst.CubeTime = src.CubeTime
	}
}

// compareAlerts is the canonical alert order: unit, then cell
// (cube.CompareKeys), then kind.
func compareAlerts(a, b Alert) int {
	return cmp.Or(cmp.Compare(a.Unit, b.Unit), cube.CompareKeys(a.Cell, b.Cell), cmp.Compare(a.Kind, b.Kind))
}

// mergeAlerts k-way-merges alert lists that are each in canonical order
// and pairwise disjoint (shards and cluster nodes own disjoint o-cells),
// consuming the lists. A sole non-empty list is returned as is.
func mergeAlerts(lists [][]Alert) []Alert {
	var sole []Alert
	nonEmpty := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty++
			sole = l
		}
	}
	if nonEmpty <= 1 {
		return sole
	}
	return mergeSorted(nil, lists, compareAlerts)
}

// AdvanceTo closes units in order until `unit` is the open unit, exactly
// as if a record at unit's first tick had arrived, and returns the merged
// results. Targets at or before the open unit are a no-op. It is how a
// cluster ingest node applies the router's unit-boundary barrier frames:
// every node advances in lockstep even when it received no records for
// the closed units, so per-node checkpoints and snapshots always agree on
// the unit counters and merge losslessly.
func (s *ShardedEngine) AdvanceTo(unit int64) ([]*UnitResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if unit <= s.unit {
		return nil, nil
	}
	return s.advanceTo(unit)
}

// Flush closes the currently open unit on every shard and returns the
// merged result (nil Result when no shard had data).
func (s *ShardedEngine) Flush() (*UnitResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	urs, err := s.advanceTo(s.unit + 1)
	if err != nil {
		return nil, err
	}
	return urs[0], nil
}

// ActiveCells returns the number of m-layer cells with data in the open
// unit, across all shards. It drains ingest buffers first.
func (s *ShardedEngine) ActiveCells() (int, error) {
	if err := s.ready(); err != nil {
		return 0, err
	}
	if _, err := s.scatter(false, func(int, *Engine) (any, error) { return nil, nil }); err != nil {
		return 0, err
	}
	return s.dict.n, nil // the drained shards' slabs hold the dictionary's cells
}

// askShard runs fn on one shard — after the ready check — and returns
// its typed reply.
func askShard[T any](s *ShardedEngine, sid int, fn func(*Engine) (T, error)) (T, error) {
	var zero T
	if err := s.ready(); err != nil {
		return zero, err
	}
	ch := make(chan shardReply, 1)
	s.shards[sid].send(shardMsg{fn: func(e *Engine) (any, error) { return fn(e) }, reply: ch})
	rep := <-ch
	if rep.err != nil {
		return zero, rep.err
	}
	return rep.val.(T), nil
}

// TrendQuery aggregates the last k units of an o-cell's history
// (Theorem 3.3) from the shard that owns the cell.
func (s *ShardedEngine) TrendQuery(cell cube.CellKey, k int) (regression.ISB, error) {
	return askShard(s, s.part.Hash(&cell.Members), func(e *Engine) (regression.ISB, error) {
		return e.TrendQuery(cell, k)
	})
}

// TrendQueryAt aggregates the last k completed units of an o-cell at the
// given tilt level (0 = finest), from the shard that owns the cell.
func (s *ShardedEngine) TrendQueryAt(cell cube.CellKey, level, k int) (regression.ISB, error) {
	return askShard(s, s.part.Hash(&cell.Members), func(e *Engine) (regression.ISB, error) {
		return e.TrendQueryAt(cell, level, k)
	})
}

// HistoryLen returns how many units of history an o-cell currently has.
func (s *ShardedEngine) HistoryLen(cell cube.CellKey) (int, error) {
	return askShard(s, s.part.Hash(&cell.Members), func(e *Engine) (int, error) {
		return e.HistoryLen(cell), nil
	})
}

// WALSeq returns the WAL watermark common to every shard (zero when no
// WAL is in use).
func (s *ShardedEngine) WALSeq() (int64, error) {
	return askShard(s, 0, func(e *Engine) (int64, error) { return e.WALSeq(), nil })
}

// SetWALSeq stamps the WAL watermark on every shard. The watermark is a
// whole-log position — how many records the log owner has both appended
// and ingested — so all shards carry the same value and MergeCheckpoints
// can demand they agree.
func (s *ShardedEngine) SetWALSeq(seq int64) error {
	if err := s.ready(); err != nil {
		return err
	}
	_, err := s.scatter(false, func(_ int, e *Engine) (any, error) {
		e.SetWALSeq(seq)
		return nil, nil
	})
	return err
}

// Checkpoint drains ingest buffers and exports the engine's state in the
// one canonical form (MergeCheckpoints over the shards): byte for byte
// what an Engine — or a ShardedEngine of any other shard count — at the
// same stream position exports.
func (s *ShardedEngine) Checkpoint() (*Checkpoint, error) {
	parts, err := s.cutCheckpoints(func(e *Engine) *Checkpoint { return e.Checkpoint() })
	if err != nil {
		return nil, err
	}
	return MergeCheckpoints(parts)
}

// AppendCheckpoint appends the checkpoint document of the engine's state —
// AppendCheckpoint of Checkpoint, byte for byte — to dst. It is the form a
// node cuts after every closed unit: each shard cuts its sorted part into
// the buffers its engine keeps, and the parts merge through a list the
// coordinator keeps, so nothing is allocated once those have grown.
func (s *ShardedEngine) AppendCheckpoint(dst []byte) ([]byte, error) {
	parts, err := s.cutCheckpoints(func(e *Engine) *Checkpoint { return e.cutCheckpoint(&e.cpBuf) })
	if err != nil {
		return dst, err
	}
	if err := mergeCheckpoints(&s.cpMerged, parts); err != nil {
		return dst, err
	}
	return AppendCheckpoint(dst, &s.cpMerged)
}

// cutCheckpoints drains ingest buffers and has every shard cut its part.
func (s *ShardedEngine) cutCheckpoints(cut func(*Engine) *Checkpoint) ([]*Checkpoint, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	vals, err := s.scatter(false, func(_ int, e *Engine) (any, error) { return cut(e), nil })
	if err != nil {
		return nil, err
	}
	parts := make([]*Checkpoint, len(vals))
	for i, v := range vals {
		parts[i] = v.(*Checkpoint)
	}
	return parts, nil
}

// Restore loads a checkpoint taken by an Engine or at any shard count by
// repartitioning cells by o-ancestor and frames (or an older file's flat
// history) by o-cell across this engine's shards. Buffered records not
// yet past a boundary are discarded, mirroring Engine.Restore replacing
// un-checkpointed accumulator state.
func (s *ShardedEngine) Restore(cp *Checkpoint) error {
	if s.closed {
		return fmt.Errorf("%w: engine closed", ErrConfig)
	}
	if cp == nil {
		return fmt.Errorf("%w: nil checkpoint", ErrConfig)
	}
	parts := make([]*Checkpoint, len(s.shards))
	for i := range parts {
		parts[i] = &Checkpoint{Unit: cp.Unit, UnitsDone: cp.UnitsDone, WALSeq: cp.WALSeq, Schema: cp.Schema}
	}
	var err error
	dict := s.dict // the sole shard numbers its own cells
	if len(s.shards) == 1 {
		parts[0].Cells = cp.Cells
	} else if dict, err = s.routeCells(cp.Cells, parts); err != nil {
		return err
	}
	for _, ch := range cp.History {
		var members [cube.MaxDims]int32
		copy(members[:], ch.Members)
		sid := s.part.Hash(&members)
		parts[sid].History = append(parts[sid].History, ch)
	}
	for _, cf := range cp.Tilt {
		var members [cube.MaxDims]int32
		copy(members[:], cf.Members)
		sid := s.part.Hash(&members)
		parts[sid].Tilt = append(parts[sid].Tilt, cf)
	}
	// The open segment is discarded; the scatter below is a barrier, so the
	// ones in flight are handed back before any shard restores.
	if s.open != nil {
		s.segFree <- s.open
		s.open = nil
	}
	if _, err := s.scatter(true, func(i int, e *Engine) (any, error) { return nil, e.Restore(parts[i]) }); err != nil {
		return err
	}
	s.dict = dict
	s.unit = cp.Unit
	s.openEnd = s.unitStart(cp.Unit + 1)
	s.done = cp.UnitsDone
	s.err = nil
	// Published snapshots describe units of the replaced state; readers
	// must wait for the first post-restore boundary.
	s.snap.Store(nil)
	return nil
}

// routeCells hands checkpointed cells to their shards in the order a fresh
// dictionary numbers them, so each shard's restored slab matches its
// ordinals; a repeated cell replaces the earlier one, as on an Engine. The
// dictionary replaces the coordinator's once the shards have restored.
func (s *ShardedEngine) routeCells(cells []CellState, parts []*Checkpoint) (*cellDict, error) {
	dict := newCellDict(&s.part.layout, s.part)
	for _, cs := range cells {
		if len(cs.Members) != s.part.layout.nd {
			return nil, fmt.Errorf("%w: checkpoint cell has %d members", ErrConfig, len(cs.Members))
		}
		code, bad := s.part.layout.code(cs.Members)
		if bad >= 0 {
			return nil, fmt.Errorf("%w: checkpoint %v", ErrConfig, s.part.layout.rangeErr(bad, cs.Members[bad]))
		}
		if c := dict.slot(code); c.key != 0 {
			parts[c.part].Cells[c.ord] = cs
		} else {
			c = dict.add(c, code)
			parts[c.part].Cells = append(parts[c.part].Cells, cs)
		}
	}
	return dict, nil
}

// Close stops the shard goroutines and waits for them to exit; they read
// every segment still in flight first. Records in the open segment are
// dropped — Flush first for the final partial unit. Close is idempotent;
// every other method fails after it.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if len(s.shards) == 1 {
		return
	}
	s.open = nil
	for _, sh := range s.shards {
		close(sh.in)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
}
