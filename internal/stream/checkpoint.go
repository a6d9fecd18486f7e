package stream

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// Checkpoint is the serializable state of an Engine: the open unit, every
// active cell's accumulator statistics, and the per-o-cell tilt frames.
// Together with the (static) Config it fully restores an engine after a
// crash or restart — the paper's "stored on disks" half of the
// critical-layer design.
type Checkpoint struct {
	Unit      int64       `json:"unit"`
	UnitsDone int64       `json:"unitsDone"`
	Cells     []CellState `json:"cells"`
	// History is the flat per-unit o-cell history that is all a version 1
	// or 2 file has (a version 3 file's copy of its frames' finest level is
	// dropped on read). Engine.Checkpoint never fills it, Restore reseeds
	// frames from it when the file has none, and the checkpoint document
	// has no section for it (AppendCheckpoint).
	History []CellHistory `json:"history,omitempty"`
	// WALSeq is the write-ahead-log watermark: how many log records the
	// checkpointed state reflects. Recovery replays log records
	// [WALSeq, end) on top of the restored state — sequence-based, not
	// unit-based, because the record that crosses a unit boundary has
	// already been folded into the new open unit's cells by the time a
	// checkpoint is cut, and a unit-granular watermark would replay it
	// twice. Zero (and omitted) when no WAL is in use.
	WALSeq int64 `json:"walSeq,omitempty"`
	// Tilt holds every o-cell's tilt frame — the whole trend history, each
	// slot once.
	Tilt   []CellFrame      `json:"tilt,omitempty"`
	Schema []DimensionShape `json:"schema"` // shape fingerprint for validation
}

// CellFrame checkpoints one o-cell's multi-granularity history.
type CellFrame struct {
	Levels  []int               `json:"levels"`
	Members []int32             `json:"members"`
	Base    int64               `json:"base"` // engine unit of the frame's first registered unit
	Frame   tilt.UnitFrameState `json:"frame"`
}

// CellState checkpoints one active m-layer cell.
type CellState struct {
	Members []int32                     `json:"members"`
	Acc     regression.AccumulatorState `json:"acc"`
}

// CellHistory is one o-cell's unit history in a version 1 or 2 file.
type CellHistory struct {
	Levels  []int             `json:"levels"`
	Members []int32           `json:"members"`
	Entries []HistoryEntryRec `json:"entries"`
}

// HistoryEntryRec is one unit of o-cell history.
type HistoryEntryRec struct {
	Unit int64          `json:"unit"`
	ISB  regression.ISB `json:"isb"`
}

// DimensionShape fingerprints one schema dimension so a checkpoint cannot
// be restored against an incompatible schema.
type DimensionShape struct {
	Name   string `json:"name"`
	MLevel int    `json:"mLevel"`
	OLevel int    `json:"oLevel"`
	Card   int    `json:"card"` // cardinality at the m-level
}

func shapeOf(s *cube.Schema) []DimensionShape {
	out := make([]DimensionShape, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = DimensionShape{
			Name:   d.Name,
			MLevel: d.MLevel,
			OLevel: d.OLevel,
			Card:   d.Hierarchy.Cardinality(d.MLevel),
		}
	}
	return out
}

// checkpointBuf is the storage one Checkpoint is cut into: the document and
// the slabs its cells' and frames' slices point into, so a cut is a handful
// of slices however many cells there are. Engine.Checkpoint cuts into a
// fresh one, which the caller then owns; ShardedEngine.AppendCheckpoint has
// every shard cut into the one its engine keeps, so the per-unit checkpoint
// of a running node allocates nothing once the slabs have grown.
type checkpointBuf struct {
	cp      Checkpoint
	keys    []cube.CellKey
	members []int32 // the cells' and the frames' member tuples
	levels  []int   // the frames' level tuples
	recs    []tilt.LevelStateRec
	slots   []tilt.Slot
}

// Checkpoint exports the engine's full dynamic state in canonical form:
// cells and tilt frames are sorted by coordinate, so two engines
// in identical states serialize to byte-identical checkpoints. The replay-
// equivalence tests lean on that — "recovered state equals uninterrupted
// state" is checked bit for bit on the encoded checkpoint.
func (e *Engine) Checkpoint() *Checkpoint { return e.cutCheckpoint(new(checkpointBuf)) }

// cutCheckpoint is Checkpoint into b, overwriting what b held: the returned
// checkpoint is b's and lives until b is cut into again.
func (e *Engine) cutCheckpoint(b *checkpointBuf) *Checkpoint {
	nd := e.layout.nd
	cp := &b.cp
	*cp = Checkpoint{
		Unit:      e.unit,
		UnitsDone: e.unitsDone,
		WALSeq:    e.walSeq,
		Schema:    e.shape,
		Cells:     cp.Cells[:0],
		Tilt:      cp.Tilt[:0],
	}
	slotsInUse, _ := e.TiltSlots()
	members := slices.Grow(b.members[:0], (e.ActiveCells()+len(e.frames))*nd)
	levels := slices.Grow(b.levels[:0], len(e.frames)*nd)
	recs := slices.Grow(b.recs[:0], len(e.frames)*len(e.cfg.TiltLevels))
	slots := slices.Grow(b.slots[:0], slotsInUse)

	for o := range e.slab {
		start := len(members)
		members = slices.Grow(members, nd)[:start+nd]
		e.layout.decode(e.codes[o], members[start:])
		cp.Cells = append(cp.Cells, CellState{Members: members[start:len(members):len(members)], Acc: e.slab[o].State()})
	}
	// Ordinal order is first-sight order, not coordinate order; sorting
	// makes the cut a pure function of engine state.
	slices.SortFunc(cp.Cells, compareCellStates)

	keys := b.keys[:0]
	for key := range e.frames {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, cube.CompareKeys)
	for _, key := range keys {
		cf := e.frames[key]
		ls, ms := len(levels), len(members)
		for d := 0; d < key.Cuboid.NumDims(); d++ {
			levels = append(levels, key.Cuboid.Level(d))
			members = append(members, key.Members[d])
		}
		rec := CellFrame{
			Levels:  levels[ls:len(levels):len(levels)],
			Members: members[ms:len(members):len(members)],
			Base:    cf.base,
		}
		rec.Frame, recs, slots = cf.frame.AppendState(recs, slots)
		cp.Tilt = append(cp.Tilt, rec)
	}
	b.keys, b.members, b.levels, b.recs, b.slots = keys, members, levels, recs, slots
	return cp
}

func compareCellStates(a, b CellState) int { return slices.Compare(a.Members, b.Members) }

// compareCoords is cube.CompareKeys on the checkpoint's coordinate form.
func compareCoords(aLevels, bLevels []int, aMembers, bMembers []int32) int {
	return cmp.Or(slices.Compare(aLevels, bLevels), slices.Compare(aMembers, bMembers))
}

func compareCellHistories(a, b CellHistory) int {
	return compareCoords(a.Levels, b.Levels, a.Members, b.Members)
}

func compareCellFrames(a, b CellFrame) int {
	return compareCoords(a.Levels, b.Levels, a.Members, b.Members)
}

// canonical reports whether the checkpoint's collections are in coordinate
// order, as every engine cuts them and every writer wrote them.
func (cp *Checkpoint) canonical() bool {
	return slices.IsSortedFunc(cp.Cells, compareCellStates) &&
		slices.IsSortedFunc(cp.History, compareCellHistories) &&
		slices.IsSortedFunc(cp.Tilt, compareCellFrames)
}

// MergeCheckpoints flattens the checkpoints of disjoint partitions of one
// stream, cut at the same stream position — the shards of a ShardedEngine,
// the shard set of a pre-canonical per-shard file, the nodes of a cluster —
// into the one canonical Checkpoint: what a single Engine fed the whole
// stream would export, byte for byte once serialized. Partitions hold
// disjoint cells and frames, each part in coordinate order, so a k-way
// merge is lossless and its order independent of the partition count. Every
// part must agree on the unit counters, the schema shape and the WAL
// watermark — a whole-log position stamped identically on every shard, so
// disagreement means the parts were cut at different points in the stream.
// (Parts that follow separate logs — cluster nodes — are merged with the
// watermark cleared; see cluster.MergeCheckpoints.)
func MergeCheckpoints(parts []*Checkpoint) (*Checkpoint, error) {
	out := new(Checkpoint)
	if err := mergeCheckpoints(out, parts); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeCheckpoints is MergeCheckpoints into out, reusing out's slices. The
// merged lists hold the parts' records by value: their member tuples and
// slots still point into the parts.
func mergeCheckpoints(out *Checkpoint, parts []*Checkpoint) error {
	if len(parts) == 0 {
		return fmt.Errorf("%w: no checkpoints to merge", ErrConfig)
	}
	first := parts[0]
	for i, cp := range parts {
		if cp == nil {
			return fmt.Errorf("%w: nil checkpoint part %d", ErrConfig, i)
		}
		if cp.Unit != first.Unit || cp.UnitsDone != first.UnitsDone {
			return fmt.Errorf("%w: part %d at unit %d/%d, part 0 at %d/%d",
				ErrConfig, i, cp.Unit, cp.UnitsDone, first.Unit, first.UnitsDone)
		}
		if cp.WALSeq != first.WALSeq {
			return fmt.Errorf("%w: part %d at WAL watermark %d, part 0 at %d",
				ErrConfig, i, cp.WALSeq, first.WALSeq)
		}
		if !slices.Equal(cp.Schema, first.Schema) {
			return fmt.Errorf("%w: part %d schema shape %+v differs from part 0 %+v",
				ErrConfig, i, cp.Schema, first.Schema)
		}
	}
	cells := make([][]CellState, len(parts))
	history := make([][]CellHistory, len(parts))
	frames := make([][]CellFrame, len(parts))
	for i, cp := range parts {
		if !cp.canonical() {
			// A hand-assembled part: sort a copy, the caller's stays as it is.
			sorted := *cp
			sorted.Cells, sorted.History, sorted.Tilt = slices.Clone(cp.Cells), slices.Clone(cp.History), slices.Clone(cp.Tilt)
			slices.SortStableFunc(sorted.Cells, compareCellStates)
			slices.SortStableFunc(sorted.History, compareCellHistories)
			slices.SortStableFunc(sorted.Tilt, compareCellFrames)
			cp = &sorted
		}
		cells[i], history[i], frames[i] = cp.Cells, cp.History, cp.Tilt
	}
	*out = Checkpoint{
		Unit: first.Unit, UnitsDone: first.UnitsDone, WALSeq: first.WALSeq, Schema: first.Schema,
		Cells:   mergeSorted(out.Cells[:0], cells, compareCellStates),
		History: mergeSorted(out.History[:0], history, compareCellHistories),
		Tilt:    mergeSorted(out.Tilt[:0], frames, compareCellFrames),
	}
	return nil
}

// mergeSorted k-way-merges lists that are each sorted by cmp onto dst,
// consuming the lists; equal elements keep list order. A linear scan for
// the least head suits the handful of shards or nodes there ever are.
func mergeSorted[T any](dst []T, lists [][]T, cmp func(a, b T) int) []T {
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || cmp(l[0], lists[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// Restore loads a checkpoint into a freshly configured engine. The
// engine's schema shape must match the checkpoint's. Trend history has one
// upgrade rule: a frame record that is a state of this engine's level chain
// restores exactly; anything else — a frame written under another chain, or
// the flat history of a file that predates frames — reseeds a fresh frame
// from its finest retained level (seedFrame).
func (e *Engine) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("%w: nil checkpoint", ErrConfig)
	}
	shape := e.shape
	if len(shape) != len(cp.Schema) {
		return fmt.Errorf("%w: checkpoint has %d dimensions, schema %d", ErrConfig, len(cp.Schema), len(shape))
	}
	for i := range shape {
		if shape[i] != cp.Schema[i] {
			return fmt.Errorf("%w: dimension %d shape %+v differs from checkpoint %+v",
				ErrConfig, i, shape[i], cp.Schema[i])
		}
	}
	if cp.WALSeq < 0 {
		return fmt.Errorf("%w: negative WAL watermark %d", ErrConfig, cp.WALSeq)
	}
	e.unit = cp.Unit
	e.openStart = e.unitStart(cp.Unit)
	e.openEnd = e.unitStart(cp.Unit + 1)
	e.unitsDone = cp.UnitsDone
	e.walSeq = cp.WALSeq
	// Cells take ordinals in checkpoint order — a many-shard coordinator
	// numbers its shards' parts the same way — and a repeated cell replaces
	// the earlier one.
	e.slab, e.codes = e.slab[:0], e.codes[:0]
	e.dict.reset()
	for _, cs := range cp.Cells {
		if len(cs.Members) != e.layout.nd {
			return fmt.Errorf("%w: checkpoint cell has %d members", ErrConfig, len(cs.Members))
		}
		code, bad := e.layout.code(cs.Members)
		if bad >= 0 {
			return fmt.Errorf("%w: checkpoint %v", ErrConfig, e.layout.rangeErr(bad, cs.Members[bad]))
		}
		acc, err := regression.RestoreAccumulator(cs.Acc)
		if err != nil {
			return fmt.Errorf("stream: restoring accumulator: %w", err)
		}
		if e.dict == nil { // a shard of a many-shard engine: cells arrive in ordinal order
			e.open(code)
			e.slab[len(e.slab)-1] = *acc
			continue
		}
		c := e.dict.slot(code)
		if c.key == 0 {
			c = e.dict.add(c, code)
			e.open(code)
		}
		e.slab[c.ord] = *acc
	}
	e.frames = make(map[cube.CellKey]*cellFrame, max(len(cp.Tilt), len(cp.History)))
	for _, rec := range cp.Tilt {
		key, err := historyKey(e.cfg.Schema, rec.Levels, rec.Members)
		if err != nil {
			return err
		}
		if rec.Base < 0 || rec.Base+rec.Frame.Pushed != cp.Unit {
			return fmt.Errorf("%w: tilt frame for cell %v covers units [%d,%d), checkpoint closed %d",
				ErrConfig, key, rec.Base, rec.Base+rec.Frame.Pushed, cp.Unit)
		}
		if rec.Frame.Pushed > 0 && rec.Frame.UnitTicks != int64(e.cfg.TicksPerUnit) {
			return fmt.Errorf("%w: tilt frame for cell %v has %d-tick units, engine %d",
				ErrConfig, key, rec.Frame.UnitTicks, e.cfg.TicksPerUnit)
		}
		if f, err := tilt.RestoreUnitFrame(e.cfg.TiltLevels, rec.Frame); err == nil {
			e.frames[key] = &cellFrame{base: rec.Base, frame: f}
			continue
		}
		var finest []HistoryEntryRec
		if len(rec.Frame.Levels) > 0 {
			for _, s := range rec.Frame.Levels[0].Slots {
				finest = append(finest, HistoryEntryRec{Unit: rec.Base + s.Unit, ISB: s.ISB})
			}
		}
		if err := e.seedFrame(key, finest, cp.Unit); err != nil {
			return err
		}
	}
	if len(cp.Tilt) == 0 {
		for _, ch := range cp.History {
			key, err := historyKey(e.cfg.Schema, ch.Levels, ch.Members)
			if err != nil {
				return err
			}
			if err := e.seedFrame(key, ch.Entries, cp.Unit); err != nil {
				return err
			}
		}
	}
	// Published snapshots describe units of the replaced state; readers
	// must wait for the first post-restore boundary.
	e.snap.Store(nil)
	return nil
}

// historyKey validates and decodes one checkpoint cell coordinate.
func historyKey(schema *cube.Schema, levels []int, members []int32) (cube.CellKey, error) {
	if len(levels) != len(schema.Dims) || len(members) != len(levels) {
		return cube.CellKey{}, fmt.Errorf("%w: malformed history key", ErrConfig)
	}
	cb, err := cube.NewCuboid(levels...)
	if err != nil {
		return cube.CellKey{}, fmt.Errorf("stream: restoring history: %w", err)
	}
	return cube.NewCellKey(cb, members...), nil
}

// seedFrame rebuilds one o-cell's frame from per-unit entries — a pre-frame
// file's history, or the finest level of a frame kept under another chain:
// the entries replay in unit order with zero regressions filling the gaps
// (and the tail up to the open unit), exactly as recordTilt would have
// registered them live. The entries must be strictly increasing closed
// units on this engine's unit grid; duplicates or strays would restore
// silently and poison later promotions, so they are rejected here.
func (e *Engine) seedFrame(key cube.CellKey, entries []HistoryEntryRec, open int64) error {
	if len(entries) == 0 {
		return nil
	}
	f, err := tilt.NewUnitFrame(e.cfg.TiltLevels)
	if err != nil {
		return fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
	}
	base := entries[0].Unit
	next := base
	push := func(isb regression.ISB) error {
		if err := f.Push(isb); err != nil {
			return fmt.Errorf("%w: seeding tilt frame for cell %v: %v", ErrConfig, key, err)
		}
		next++
		return nil
	}
	zeroTo := func(u int64) error {
		for next < u {
			if err := push(regression.ISB{Tb: e.unitStart(next), Te: e.unitStart(next+1) - 1}); err != nil {
				return err
			}
		}
		return nil
	}
	for i, rec := range entries {
		if rec.Unit < 0 || rec.Unit >= open {
			return fmt.Errorf("%w: history for cell %v names unit %d outside closed range [0,%d)",
				ErrConfig, key, rec.Unit, open)
		}
		if i > 0 && rec.Unit <= entries[i-1].Unit {
			return fmt.Errorf("%w: history for cell %v has unit %d after unit %d (want sorted unique units)",
				ErrConfig, key, rec.Unit, entries[i-1].Unit)
		}
		if rec.ISB.Tb != e.unitStart(rec.Unit) || rec.ISB.Te != e.unitStart(rec.Unit+1)-1 {
			return fmt.Errorf("%w: history for cell %v unit %d covers ticks [%d,%d], not the engine's unit",
				ErrConfig, key, rec.Unit, rec.ISB.Tb, rec.ISB.Te)
		}
		if err := zeroTo(rec.Unit); err != nil {
			return err
		}
		if err := push(rec.ISB); err != nil {
			return err
		}
	}
	if err := zeroTo(open); err != nil {
		return err
	}
	e.frames[key] = &cellFrame{base: base, frame: f}
	return nil
}
