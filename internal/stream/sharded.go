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

// barrierFn is one shard's part of a barrier: it runs on the shard's
// engine, given the shard's index, while the coordinator waits.
type barrierFn func(id int, e *Engine) (any, error)

// shardReply carries a barrierFn's outcome back to the coordinator.
type shardReply struct {
	val any
	err error
}

// shard is the coordinator's handle on one partition's Engine. Shard 0's
// barrier work runs on the coordinator's own goroutine; every other shard
// has a goroutine that takes barrierFns on in and answers on out, and
// closes done when in is closed. No shard goroutine runs between
// barriers, so the coordinator accumulates into every shard's slab itself.
// slab mirrors eng.slab, one load nearer the per-record step; only opening
// a cell and a barrier change the engine's, and both refresh it.
type shard struct {
	id   int
	eng  *Engine
	slab []regression.Accumulator
	in   chan barrierFn // nil for shard 0
	out  chan shardReply
	done chan struct{}
}

// ShardedEngine partitions the online analyzer (§4.5) across N independent
// per-shard Engines. The coordinator accumulates every record itself; the
// shards close their units in parallel.
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
// Ingest is one loop at every shard count, on the caller's goroutine: the
// coordinator codes a record's m-cell, its one cell dictionary gives the
// cell's shard and ordinal there, and the record's accumulator step runs on
// that shard engine's slab before Ingest or IngestBatch returns. Barriers —
// unit closes, checkpoint cuts, Restore — are the only time shard
// goroutines run, and the coordinator waits for them, so no engine is ever
// touched by two goroutines at once. A record crossing the open unit's end
// closes the finished units on every shard in parallel and merges the
// per-shard results in shard-stable order.
//
// Like Engine, a ShardedEngine's methods must be called from one
// goroutine. A record error comes back from the call that carried the
// record, at every shard count. A refused accumulator step (a tick its cell
// already consumed, a non-finite value) and any barrier error stick: they
// fail every later call until Restore replaces the state. An out-of-range
// member or a tick before the open unit is refused before any record of its
// run is ingested, and does not stick.
type ShardedEngine struct {
	cfg    Config
	shards []shard
	// part is the o-ancestor partition function the multi-node router
	// (internal/cluster) shares, so shards and nodes route identically.
	// dict is the one cell dictionary: it routes cells through part and
	// numbers each shard's cells (one shard has nothing to route). The
	// shard engines have none. cellsActive is its size when the last
	// barrier emptied it.
	part        *Partitioner
	dict        *cellDict
	cellsActive atomic.Int64
	// openEnd caches unitStart(unit+1) so the per-record boundary test is
	// one comparison.
	openEnd int64
	unit    int64
	done    int64
	err     error
	closed  bool
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
	s := &ShardedEngine{cfg: cfg, shards: make([]shard, shards)}
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
		eng.dict = nil // the coordinator numbers the shards' cells
		s.shards[i] = shard{id: i, eng: eng}
	}
	s.cfg = s.shards[0].eng.cfg // normalized (level chain)
	s.cfg.PublishSnapshots = cfg.PublishSnapshots
	var err error
	if s.part, err = NewPartitioner(cfg.Schema, shards); err != nil {
		return nil, err
	}
	s.openEnd = s.unitStart(1)
	s.dict = s.newDict()
	for i := 1; i < shards; i++ {
		sh := &s.shards[i]
		sh.in, sh.out, sh.done = make(chan barrierFn, 1), make(chan shardReply, 1), make(chan struct{})
		go sh.run()
	}
	return s, nil
}

// newDict returns an empty cell dictionary for the coordinator: one that
// routes through part, or with one shard one that has nothing to route.
func (s *ShardedEngine) newDict() *cellDict {
	if len(s.shards) == 1 {
		return newCellDict(&s.part.layout, nil)
	}
	return newCellDict(&s.part.layout, s.part)
}

// run is the goroutine of every shard but shard 0.
func (sh *shard) run() {
	defer close(sh.done)
	for fn := range sh.in {
		sh.out <- sh.do(fn)
	}
}

// open opens a cell's accumulator in the shard's slab, at the next ordinal.
func (sh *shard) open(code uint64) {
	sh.eng.open(code)
	sh.slab = sh.eng.slab
}

// do runs fn on the shard's engine.
func (sh *shard) do(fn barrierFn) shardReply {
	val, err := fn(sh.id, sh.eng)
	return shardReply{val: val, err: err}
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

// CellsActive returns the cell dictionary's size when the last unit
// barrier emptied it: the distinct m-cells the open unit held then, summed
// over shards. Safe from any goroutine.
func (s *ShardedEngine) CellsActive() int64 { return s.cellsActive.Load() }

// ready guards every public operation behind the closed/sticky-error state.
func (s *ShardedEngine) ready() error {
	if s.closed {
		return fmt.Errorf("%w: engine closed", ErrConfig)
	}
	return s.err
}

// scatter is a barrier: it runs fn on every shard concurrently — shard 0's
// on the caller's goroutine — and returns the replies in shard order. The
// first error, in shard order, becomes sticky.
func (s *ShardedEngine) scatter(fn barrierFn) ([]any, error) {
	for _, sh := range s.shards[1:] {
		sh.in <- fn
	}
	out := make([]any, len(s.shards))
	var firstErr error
	for i := range s.shards {
		var rep shardReply
		if i == 0 {
			rep = s.shards[0].do(fn)
		} else {
			rep = <-s.shards[i].out
		}
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
		out[i] = rep.val
	}
	for i := range s.shards {
		s.shards[i].slab = s.shards[i].eng.slab // closes and restores replace it
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
// results in order. The record is then accumulated before Ingest returns;
// an out-of-range member fails here, after boundary handling.
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
	code, bad := s.part.layout.code(members)
	if bad >= 0 {
		return closed, s.part.layout.rangeErr(bad, members[bad])
	}
	// accumulate's step, spelled out for one record: a run of one through
	// the loop costs a call and a few ns a record on WAL replay.
	c := s.dict.slot(code)
	if c.key == 0 {
		c = s.dict.add(c, code)
		s.shards[c.part].open(code)
	}
	sh := &s.shards[c.part]
	if acc := &sh.slab[c.ord]; !acc.Observe(tick, value) {
		s.err = sh.eng.refuse(acc, tick, value)
		return closed, s.err
	}
	return closed, nil
}

// accumulate is the ingest loop at every shard count: per record of a run
// inside the open unit, its cells coded and range-checked by the caller,
// the cell's shard and ordinal from the dictionary — a cell's first record
// opens its accumulator in that shard's slab — and the accumulator step,
// on the caller's goroutine. A refused step fails the run and sticks; the
// records before it stand.
func (s *ShardedEngine) accumulate(ticks []int64, values []float64, codes []uint64) error {
	ticks, values = ticks[:len(codes)], values[:len(codes)]
	d, shards := s.dict, s.shards
	for j, code := range codes {
		c := d.slot(code)
		if c.key == 0 {
			c = d.add(c, code)
			shards[c.part].open(code)
		}
		sh := &shards[c.part]
		if acc := &sh.slab[c.ord]; !acc.Observe(ticks[j], values[j]) {
			s.err = sh.eng.refuse(acc, ticks[j], values[j])
			return s.err
		}
	}
	return nil
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
	vals, err := s.scatter(func(_ int, e *Engine) (any, error) {
		var adv shardAdvance
		for e.unit < target {
			ur, err := e.closeUnit()
			if err != nil {
				return nil, err
			}
			adv.urs = append(adv.urs, ur)
			if publish {
				// Copied inside the barrier, unit by unit, so the copies
				// are exact per unit and never race with the shard's own
				// later units.
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
// with their drills complete (finished inside the barrier), the
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
// unit, across all shards: the dictionary's size, since the shards' slabs
// hold exactly its cells.
func (s *ShardedEngine) ActiveCells() (int, error) {
	if err := s.ready(); err != nil {
		return 0, err
	}
	return s.dict.n, nil
}

// askShard runs fn on one shard's engine — after the ready check — on the
// caller's goroutine: between barriers no shard goroutine runs.
func askShard[T any](s *ShardedEngine, sid int, fn func(*Engine) (T, error)) (T, error) {
	if err := s.ready(); err != nil {
		var zero T
		return zero, err
	}
	return fn(s.shards[sid].eng)
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
	for _, sh := range s.shards {
		sh.eng.SetWALSeq(seq)
	}
	return nil
}

// Checkpoint exports the engine's state in the
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

// cutCheckpoints has every shard cut its part, in parallel.
func (s *ShardedEngine) cutCheckpoints(cut func(*Engine) *Checkpoint) ([]*Checkpoint, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	vals, err := s.scatter(func(_ int, e *Engine) (any, error) { return cut(e), nil })
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
// history) by o-cell across this engine's shards. The open unit's records
// are discarded, mirroring Engine.Restore replacing un-checkpointed
// accumulator state. A successful Restore clears a sticky error.
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
	dict, err := s.routeCells(cp.Cells, parts)
	if err != nil {
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
	if _, err := s.scatter(func(i int, e *Engine) (any, error) { return nil, e.Restore(parts[i]) }); err != nil {
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
	dict := s.newDict()
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

// Close stops the shard goroutines and waits for them to exit. The open
// unit's records are dropped — Flush first for the final partial unit.
// Close is idempotent; every other method fails after it.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, sh := range s.shards[1:] {
		close(sh.in)
	}
	for _, sh := range s.shards[1:] {
		<-sh.done
	}
}
