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
// fresh one per shard, which the caller then owns; Engine.AppendCheckpoint
// has every shard cut into the one it keeps, so the per-unit checkpoint of
// a running node allocates nothing once the slabs have grown.
type checkpointBuf struct {
	cp      Checkpoint
	keys    []cube.CellKey
	members []int32 // the cells' and the frames' member tuples
	levels  []int   // the frames' level tuples
	recs    []tilt.LevelStateRec
	slots   []tilt.Slot
}

// Checkpoint exports the engine's full dynamic state in canonical form:
// cells and tilt frames are sorted by coordinate, so two engines in
// identical states serialize to byte-identical checkpoints, whatever their
// shard counts — MergeCheckpoints over the shards' parts. The replay-
// equivalence tests lean on that — "recovered state equals uninterrupted
// state" is checked bit for bit on the encoded checkpoint. The checkpoint
// is the caller's.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	parts, err := e.cutCheckpoints(func(*shard) *checkpointBuf { return new(checkpointBuf) })
	if err != nil {
		return nil, err
	}
	out := new(Checkpoint)
	if err := mergeCheckpoints(out, parts); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendCheckpoint appends the checkpoint document of the engine's state —
// AppendCheckpoint of Checkpoint, byte for byte — to dst. It is the form a
// node cuts after every closed unit: each shard cuts its sorted part into
// the buffers it keeps, and the parts merge through a list the engine
// keeps, so nothing is allocated once those have grown.
func (e *Engine) AppendCheckpoint(dst []byte) ([]byte, error) {
	parts, err := e.cutCheckpoints(func(sh *shard) *checkpointBuf { return &sh.cpBuf })
	if err != nil {
		return dst, err
	}
	if err := mergeCheckpoints(&e.cpMerged, parts); err != nil {
		return dst, err
	}
	return AppendCheckpoint(dst, &e.cpMerged)
}

// cutCheckpoints has every shard cut its part into the buffer buf names,
// in parallel.
func (e *Engine) cutCheckpoints(buf func(*shard) *checkpointBuf) ([]*Checkpoint, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	head := Checkpoint{Unit: e.unit, UnitsDone: e.unitsDone, WALSeq: e.walSeq, Schema: e.shape}
	vals, err := e.barrier(func(sh *shard) (any, error) { return sh.cutCheckpoint(buf(sh), &head), nil })
	if err != nil {
		return nil, err
	}
	parts := make([]*Checkpoint, len(vals))
	for i, v := range vals {
		parts[i] = v.(*Checkpoint)
	}
	return parts, nil
}

// cutCheckpoint cuts the shard's part — head's counters, the partition's
// cells and frames, each in coordinate order — into b, overwriting what b
// held: the returned checkpoint is b's and lives until b is cut into again.
func (sh *shard) cutCheckpoint(b *checkpointBuf, head *Checkpoint) *Checkpoint {
	nd := sh.e.part.layout.nd
	cp := &b.cp
	cells, tilts := cp.Cells[:0], cp.Tilt[:0]
	*cp = *head
	cp.Cells, cp.Tilt = cells, tilts
	slotsInUse, _ := sh.tiltSlots()
	members := slices.Grow(b.members[:0], (len(sh.slab)+len(sh.frames))*nd)
	levels := slices.Grow(b.levels[:0], len(sh.frames)*nd)
	recs := slices.Grow(b.recs[:0], len(sh.frames)*len(sh.e.cfg.TiltLevels))
	slots := slices.Grow(b.slots[:0], slotsInUse)

	for o := range sh.slab {
		start := len(members)
		members = slices.Grow(members, nd)[:start+nd]
		sh.e.part.layout.decode(sh.codes[o], members[start:])
		cp.Cells = append(cp.Cells, CellState{Members: members[start:len(members):len(members)], Acc: sh.slab[o].State()})
	}
	// Ordinal order is first-sight order, not coordinate order; sorting
	// makes the cut a pure function of engine state.
	slices.SortFunc(cp.Cells, compareCellStates)

	keys := b.keys[:0]
	for key := range sh.frames {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, cube.CompareKeys)
	for _, key := range keys {
		cf := sh.frames[key]
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

func compareCellFrames(a, b CellFrame) int {
	return compareCoords(a.Levels, b.Levels, a.Members, b.Members)
}

// canonical reports whether the checkpoint's collections are in coordinate
// order, as every engine cuts them and every writer wrote them.
func (cp *Checkpoint) canonical() bool {
	return slices.IsSortedFunc(cp.Cells, compareCellStates) &&
		slices.IsSortedFunc(cp.Tilt, compareCellFrames)
}

// MergeCheckpoints flattens the checkpoints of disjoint partitions of one
// stream, cut at the same stream position — the shards of an Engine,
// the shard set of a pre-canonical per-shard file, the nodes of a cluster —
// into the one canonical Checkpoint: what a one-shard Engine fed the whole
// stream would export, byte for byte once serialized. Partitions hold
// disjoint cells and frames, each part in coordinate order, so a k-way
// merge is lossless and its order independent of the partition count. Every
// part must agree on the unit counters, the schema shape and the WAL
// watermark — a whole-log position stamped identically on every shard, so
// disagreement means the parts were cut at different points in the stream.
// (Parts that follow separate logs — cluster nodes — are merged with the
// watermark cleared; see cluster.MergeCheckpoints.) Parts that share a
// cell or a frame are not disjoint — the same file twice, say — and are
// refused.
func MergeCheckpoints(parts []*Checkpoint) (*Checkpoint, error) {
	out := new(Checkpoint)
	if err := mergeCheckpoints(out, parts); err != nil {
		return nil, err
	}
	for i := 1; i < len(out.Cells); i++ {
		if compareCellStates(out.Cells[i-1], out.Cells[i]) == 0 {
			return nil, fmt.Errorf("%w: parts share cell %v", ErrConfig, out.Cells[i].Members)
		}
	}
	for i := 1; i < len(out.Tilt); i++ {
		if compareCellFrames(out.Tilt[i-1], out.Tilt[i]) == 0 {
			return nil, fmt.Errorf("%w: parts share the frame of cell %v", ErrConfig, out.Tilt[i].Members)
		}
	}
	return out, nil
}

// mergeCheckpoints is MergeCheckpoints into out, reusing out's slices, for
// the parts of one engine, which are disjoint by construction. The merged
// lists hold the parts' records by value: their member tuples and slots
// still point into the parts.
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
	frames := make([][]CellFrame, len(parts))
	for i, cp := range parts {
		if !cp.canonical() {
			// A hand-assembled part: sort a copy, the caller's stays as it is.
			sorted := *cp
			sorted.Cells, sorted.Tilt = slices.Clone(cp.Cells), slices.Clone(cp.Tilt)
			slices.SortStableFunc(sorted.Cells, compareCellStates)
			slices.SortStableFunc(sorted.Tilt, compareCellFrames)
			cp = &sorted
		}
		cells[i], frames[i] = cp.Cells, cp.Tilt
	}
	*out = Checkpoint{
		Unit: first.Unit, UnitsDone: first.UnitsDone, WALSeq: first.WALSeq, Schema: first.Schema,
		Cells: mergeSorted(out.Cells[:0], cells, compareCellStates),
		Tilt:  mergeSorted(out.Tilt[:0], frames, compareCellFrames),
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

// Restore loads a checkpoint taken at any shard count: it repartitions
// cells by o-ancestor and frames by o-cell across this engine's shards.
// The open unit's records are discarded — Restore replaces
// un-checkpointed accumulator state — and a successful Restore clears a
// sticky error. The engine's schema shape must match the checkpoint's,
// and every frame must be an o-cell's on this engine's unit grid that has
// registered every closed unit since its first. Trend history has one
// upgrade rule: a frame record that is a state of this engine's level
// chain restores exactly; a frame written under another chain reseeds a
// fresh frame from its finest retained level (seedFrame).
func (e *Engine) Restore(cp *Checkpoint) error {
	if e.closed {
		return fmt.Errorf("%w: engine closed", ErrConfig)
	}
	if cp == nil {
		return fmt.Errorf("%w: nil checkpoint", ErrConfig)
	}
	if len(e.shape) != len(cp.Schema) {
		return fmt.Errorf("%w: checkpoint has %d dimensions, schema %d", ErrConfig, len(cp.Schema), len(e.shape))
	}
	for i := range e.shape {
		if e.shape[i] != cp.Schema[i] {
			return fmt.Errorf("%w: dimension %d shape %+v differs from checkpoint %+v",
				ErrConfig, i, e.shape[i], cp.Schema[i])
		}
	}
	if cp.WALSeq < 0 {
		return fmt.Errorf("%w: negative WAL watermark %d", ErrConfig, cp.WALSeq)
	}
	parts := make([]Checkpoint, len(e.shards))
	dict, err := e.routeCells(cp.Cells, parts)
	if err != nil {
		return err
	}
	for _, cf := range cp.Tilt {
		var members [cube.MaxDims]int32
		copy(members[:], cf.Members)
		sid := e.part.Hash(&members)
		parts[sid].Tilt = append(parts[sid].Tilt, cf)
	}
	if _, err := e.barrier(func(sh *shard) (any, error) { return nil, sh.restore(&parts[sh.id], cp.Unit) }); err != nil {
		return err
	}
	e.dict = dict
	e.unit = cp.Unit
	e.openStart = e.cfg.unitStart(cp.Unit)
	e.openEnd = e.cfg.unitStart(cp.Unit + 1)
	e.unitsDone = cp.UnitsDone
	e.walSeq = cp.WALSeq
	e.err = nil
	// Published snapshots describe units of the replaced state; readers
	// must wait for the first post-restore boundary.
	e.snap.Store(nil)
	return nil
}

// routeCells hands checkpointed cells to their shards in the order a fresh
// dictionary numbers them, so each shard's restored slab matches its
// ordinals; a repeated cell replaces the earlier one. The dictionary
// replaces the engine's once the shards have restored.
func (e *Engine) routeCells(cells []CellState, parts []Checkpoint) (*cellDict, error) {
	dict := e.newDict()
	for _, cs := range cells {
		if len(cs.Members) != e.part.layout.nd {
			return nil, fmt.Errorf("%w: checkpoint cell has %d members", ErrConfig, len(cs.Members))
		}
		code, bad := e.part.layout.code(cs.Members)
		if bad >= 0 {
			return nil, fmt.Errorf("%w: checkpoint %v", ErrConfig, e.part.layout.rangeErr(bad, cs.Members[bad]))
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

// restore replaces the shard's state with its part of a checkpoint whose
// open unit is open: the cells, range-checked and in ordinal order
// (routeCells), and the frames of its o-cells.
func (sh *shard) restore(cp *Checkpoint, open int64) error {
	cfg, layout := &sh.e.cfg, &sh.e.part.layout
	sh.slab, sh.codes = sh.slab[:0], sh.codes[:0]
	for _, cs := range cp.Cells {
		acc, err := regression.RestoreAccumulator(cs.Acc)
		if err != nil {
			return fmt.Errorf("stream: restoring accumulator: %w", err)
		}
		code, _ := layout.code(cs.Members)
		sh.slab = append(sh.slab, *acc)
		sh.codes = append(sh.codes, code)
	}
	sh.frames = make(map[cube.CellKey]*cellFrame, len(cp.Tilt))
	for i := range cp.Tilt {
		rec := &cp.Tilt[i]
		key, err := frameKey(cfg.Schema, rec.Levels, rec.Members)
		if err != nil {
			return err
		}
		st := &rec.Frame
		if rec.Base < 0 || rec.Base+st.Pushed != open {
			return fmt.Errorf("%w: tilt frame for cell %v covers units [%d,%d), checkpoint closed %d",
				ErrConfig, key, rec.Base, rec.Base+st.Pushed, open)
		}
		if st.Pushed > 0 && (st.UnitTicks != int64(cfg.TicksPerUnit) || st.NextTb != cfg.unitStart(open)) {
			return fmt.Errorf("%w: tilt frame for cell %v has %d-tick units up to tick %d, engine %d-tick units up to %d",
				ErrConfig, key, st.UnitTicks, st.NextTb, cfg.TicksPerUnit, cfg.unitStart(open))
		}
		if f, err := tilt.RestoreUnitFrame(cfg.TiltLevels, *st); err == nil {
			sh.frames[key] = &cellFrame{base: rec.Base, frame: f}
		} else if err := sh.seedFrame(key, rec, open); err != nil {
			return err
		}
	}
	return nil
}

// frameKey validates and decodes one frame record's coordinate, which must
// name a cell of the schema's o-layer.
func frameKey(schema *cube.Schema, levels []int, members []int32) (cube.CellKey, error) {
	if len(levels) != len(schema.Dims) || len(members) != len(levels) {
		return cube.CellKey{}, fmt.Errorf("%w: malformed tilt frame key", ErrConfig)
	}
	for d, dim := range schema.Dims {
		if levels[d] != dim.OLevel {
			return cube.CellKey{}, fmt.Errorf("%w: tilt frame for a cell at levels %v, not on the o-layer", ErrConfig, levels)
		}
		if m := members[d]; m < 0 || int(m) >= dim.Hierarchy.Cardinality(dim.OLevel) {
			return cube.CellKey{}, fmt.Errorf("%w: tilt frame for o-cell %v: dimension %d has no member %d",
				ErrConfig, members, d, m)
		}
	}
	return cube.NewCellKey(schema.OLayer(), members...), nil
}

// seedFrame rebuilds one o-cell's frame under this engine's level chain
// from the finest level of a frame record kept under another: its retained
// slots, which must be the contiguous engine units that end where the open
// unit starts, replay in order exactly as recordTilt registered them live.
// Anything else would restore silently and poison later promotions, so it
// is rejected here.
func (sh *shard) seedFrame(key cube.CellKey, rec *CellFrame, open int64) error {
	if len(rec.Frame.Levels) == 0 || len(rec.Frame.Levels[0].Slots) == 0 {
		return nil
	}
	cfg := &sh.e.cfg
	f, err := tilt.NewUnitFrame(cfg.TiltLevels)
	if err != nil {
		return fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
	}
	slots := rec.Frame.Levels[0].Slots
	base := open - int64(len(slots))
	if base < rec.Base {
		return fmt.Errorf("%w: tilt frame for cell %v retains %d finest units of %d registered",
			ErrConfig, key, len(slots), rec.Frame.Pushed)
	}
	for i, s := range slots {
		u := base + int64(i)
		if rec.Base+s.Unit != u || s.ISB.Tb != cfg.unitStart(u) || s.ISB.Te != cfg.unitStart(u+1)-1 {
			return fmt.Errorf("%w: tilt frame for cell %v: finest slot %d is unit %d over ticks [%d,%d], want unit %d",
				ErrConfig, key, i, rec.Base+s.Unit, s.ISB.Tb, s.ISB.Te, u)
		}
		if err := f.Push(s.ISB); err != nil {
			return fmt.Errorf("%w: seeding tilt frame for cell %v: %v", ErrConfig, key, err)
		}
	}
	sh.frames[key] = &cellFrame{base: base, frame: f}
	return nil
}
