package stream

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
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

// Checkpoint exports the engine's full dynamic state in canonical form, as
// AppendCheckpoint's document read back: cells and frames in coordinate
// order, byte-identical for identical states at any shard count (the
// replay-equivalence tests compare them bit for bit), and the caller's.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	doc, err := e.AppendCheckpoint(nil)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(doc)
}

// AppendCheckpoint appends the checkpoint document of the engine's state to
// dst. It is the form a node cuts after every closed unit. Frames change
// only at a close or a Restore, which leave them in Engine.frames, so a
// checkpoint cuts just the open unit's cells: each shard its sorted part,
// into buffers it keeps, merged into a list the engine keeps — nothing is
// allocated once those have grown.
func (e *Engine) AppendCheckpoint(dst []byte) ([]byte, error) {
	if err := e.ready(); err != nil {
		return dst, err
	}
	vals, err := e.barrier(func(sh *shard) (any, error) { return sh.cutCells(), nil })
	if err != nil {
		return dst, err
	}
	// Never a nil dst, which would keep a sole shard's cut as e.cp.Cells.
	cells, _ := core.MergeRuns(slices.Grow(e.cp.Cells[:0], 1), replies[[]CellState](vals), compareCellStates)
	e.cp = Checkpoint{Unit: e.unit, UnitsDone: e.unitsDone, WALSeq: e.walSeq, Schema: e.shape, Cells: cells, Tilt: e.frames}
	return AppendCheckpoint(dst, &e.cp)
}

// cutCells cuts the shard's open cells, in coordinate order, into the
// buffers it keeps: the returned list lives until the shard cuts again.
func (sh *shard) cutCells() []CellState {
	nd := sh.e.part.layout.nd
	cells := sh.cpCells[:0]
	members := slices.Grow(sh.cpMembers[:0], len(sh.slab)*nd)[:len(sh.slab)*nd]
	// Ordinal order is first-sight order; code order, coordinate order,
	// makes the cut a pure function of engine state.
	for i, o := range sh.byCode() {
		m := members[i*nd : (i+1)*nd : (i+1)*nd]
		sh.e.part.layout.decode(sh.codes[o], m)
		cells = append(cells, CellState{Members: m, Acc: sh.slab[o].State()})
	}
	sh.cpCells, sh.cpMembers = cells, members
	return cells
}

func compareCellStates(a, b CellState) int { return slices.Compare(a.Members, b.Members) }

// compareCellFrames is cube.CompareKeys on the checkpoint's coordinate
// form.
func compareCellFrames(a, b CellFrame) int {
	return cmp.Or(slices.Compare(a.Levels, b.Levels), slices.Compare(a.Members, b.Members))
}

// MergeCheckpoints flattens the checkpoints of disjoint partitions of one
// stream, cut at the same stream position — the shard set of a
// pre-canonical per-shard file, the nodes of a cluster — into the one
// canonical Checkpoint: what a one-shard Engine fed the whole stream would
// export, byte for byte once serialized. Partitions hold disjoint cells and
// frames, each part in coordinate order, so a k-way merge is lossless and
// its order independent of the partition count. Every part must agree on
// the unit counters, the schema shape and the WAL watermark — a whole-log
// position stamped identically on every shard, so disagreement means the
// parts were cut at different points in the stream. (Parts that follow
// separate logs — cluster nodes — are merged with the watermark cleared;
// see cluster.MergeCheckpoints.) Parts that share a cell or a frame are not
// disjoint — the same file twice, say — and are refused.
func MergeCheckpoints(parts []*Checkpoint) (*Checkpoint, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no checkpoints to merge", ErrConfig)
	}
	first := parts[0]
	cells := make([][]CellState, len(parts))
	frames := make([][]CellFrame, len(parts))
	for i, cp := range parts {
		if cp == nil {
			return nil, fmt.Errorf("%w: nil checkpoint part %d", ErrConfig, i)
		}
		if cp.Unit != first.Unit || cp.UnitsDone != first.UnitsDone {
			return nil, fmt.Errorf("%w: part %d at unit %d/%d, part 0 at %d/%d",
				ErrConfig, i, cp.Unit, cp.UnitsDone, first.Unit, first.UnitsDone)
		}
		if cp.WALSeq != first.WALSeq {
			return nil, fmt.Errorf("%w: part %d at WAL watermark %d, part 0 at %d",
				ErrConfig, i, cp.WALSeq, first.WALSeq)
		}
		if !slices.Equal(cp.Schema, first.Schema) {
			return nil, fmt.Errorf("%w: part %d schema shape %+v differs from part 0 %+v",
				ErrConfig, i, cp.Schema, first.Schema)
		}
		cells[i], frames[i] = cp.Cells, cp.Tilt
		if core.CheckRun(cp.Cells, compareCellStates) >= 0 || core.CheckRun(cp.Tilt, compareCellFrames) >= 0 {
			// A hand-assembled part: normalise a copy, the caller's stays as it is.
			cells[i] = core.NormalizeRun(slices.Clone(cp.Cells), compareCellStates)
			frames[i] = core.NormalizeRun(slices.Clone(cp.Tilt), compareCellFrames)
			if len(cells[i]) < len(cp.Cells) || len(frames[i]) < len(cp.Tilt) {
				return nil, fmt.Errorf("%w: parts share cells: part %d lists one twice", ErrConfig, i)
			}
		}
	}
	out := &Checkpoint{Unit: first.Unit, UnitsDone: first.UnitsDone, WALSeq: first.WALSeq, Schema: first.Schema}
	var repeat int
	if out.Cells, repeat = core.MergeRuns(nil, cells, compareCellStates); repeat >= 0 {
		return nil, fmt.Errorf("%w: parts share cell %v", ErrConfig, out.Cells[repeat].Members)
	}
	if out.Tilt, repeat = core.MergeRuns(nil, frames, compareCellFrames); repeat >= 0 {
		return nil, fmt.Errorf("%w: parts share the frame of cell %v", ErrConfig, out.Tilt[repeat].Members)
	}
	return out, nil
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
// fresh frame from its finest retained level (seedFrame). The engine keeps
// the records' member tuples and slots and never writes them: write them
// after Restore and the engine's history changes with them.
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
	vals, err := e.barrier(func(sh *shard) (any, error) {
		if err := sh.restore(&parts[sh.id], cp.Unit); err != nil {
			return nil, err
		}
		return sh.frames, nil
	})
	if err != nil {
		return err
	}
	e.frames, _ = core.MergeRuns(nil, replies[[]CellFrame](vals), compareCellFrames)
	e.dict = dict
	e.unit = cp.Unit
	e.openStart = e.cfg.unitStart(cp.Unit)
	e.openEnd = e.cfg.unitStart(cp.Unit + 1)
	e.unitsDone = cp.UnitsDone
	e.walSeq = cp.WALSeq
	e.err = nil
	// Published snapshots describe units of the replaced state; readers
	// must wait for the first post-restore boundary, and no snapshot
	// published from here on is a successor of one published before.
	e.snap.Store(nil)
	e.origin = newOrigin()
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
// (routeCells), and the frames of its o-cells, sorted. A record of this
// engine's chain is adopted as it is, its slots shared with the caller's
// and clipped (tilt.RestoreUnitFrame); one of another chain is reseeded.
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
	frames := make([]CellFrame, 0, len(cp.Tilt))
	for _, rec := range cp.Tilt {
		if err := checkFrame(cfg.Schema, &rec, open, cfg.unitStart(open), int64(cfg.TicksPerUnit)); err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
		rec.Levels = sh.e.oLevels
		if f, err := tilt.RestoreUnitFrame(cfg.TiltLevels, rec.Frame); err == nil {
			rec.Frame = f.State()
		} else if len(rec.Frame.Levels) == 0 || len(rec.Frame.Levels[0].Slots) == 0 {
			continue // no finest slots to reseed from
		} else if err := sh.seedFrame(&rec, open); err != nil {
			return err
		}
		frames = append(frames, rec)
	}
	// A hand-assembled list may come in any order and name a cell twice:
	// the record listed last is the one kept.
	sh.frames = core.NormalizeRun(frames, compareCellFrames)
	return nil
}

// checkFrame is the one check a frame record passes before an engine
// restores it or a snapshot carries it: an o-layer coordinate with members
// inside the o-layer, and a base and push count that end where unit open
// starts, on the unit grid of unitTicks-tick units that has open's first
// tick at nextTb. Whether the frame is a state of a level chain is
// tilt.CheckState's to say. It allocates nothing unless it fails.
func checkFrame(schema *cube.Schema, rec *CellFrame, open, nextTb, unitTicks int64) error {
	if len(rec.Levels) != len(schema.Dims) || len(rec.Members) != len(rec.Levels) {
		return fmt.Errorf("malformed tilt frame key: %d levels, %d members", len(rec.Levels), len(rec.Members))
	}
	for d, dim := range schema.Dims {
		if rec.Levels[d] != dim.OLevel {
			return fmt.Errorf("tilt frame for a cell at levels %v, not on the o-layer", rec.Levels)
		}
		if m := rec.Members[d]; m < 0 || int(m) >= dim.Hierarchy.Cardinality(dim.OLevel) {
			return fmt.Errorf("tilt frame for o-cell %v: dimension %d has no member %d", rec.Members, d, m)
		}
	}
	st := &rec.Frame
	if rec.Base < 0 || rec.Base+st.Pushed != open {
		return fmt.Errorf("tilt frame for o-cell %v covers units [%d,%d), want it to end at unit %d",
			rec.Members, rec.Base, rec.Base+st.Pushed, open)
	}
	if st.Pushed > 0 && (st.UnitTicks != unitTicks || st.NextTb != nextTb) {
		return fmt.Errorf("tilt frame for o-cell %v has %d-tick units up to tick %d, want %d-tick units up to %d",
			rec.Members, st.UnitTicks, st.NextTb, unitTicks, nextTb)
	}
	return nil
}

// Key returns the frame's cell. The record must name one, as every record
// that passed checkFrame does.
func (f *CellFrame) Key() cube.CellKey {
	c, _ := cube.NewCuboid(f.Levels...)
	return cube.NewCellKey(c, f.Members...)
}

// seedFrame rebuilds one o-cell's frame record under this engine's level
// chain from the finest level of a record kept under another, in place:
// its retained slots, which must be the contiguous engine units that end
// where the open unit starts, replay in order exactly as AdvanceFrames
// registered them live. Anything else would restore silently and poison
// later promotions, so it is rejected here.
func (sh *shard) seedFrame(rec *CellFrame, open int64) error {
	cfg := &sh.e.cfg
	f, err := tilt.NewUnitFrame(cfg.TiltLevels)
	if err != nil {
		return fmt.Errorf("%w: tilt levels: %v", ErrConfig, err)
	}
	slots := rec.Frame.Levels[0].Slots
	base := open - int64(len(slots))
	if base < rec.Base {
		return fmt.Errorf("%w: tilt frame for cell %v retains %d finest units of %d registered",
			ErrConfig, rec.Key(), len(slots), rec.Frame.Pushed)
	}
	for i, s := range slots {
		u := base + int64(i)
		if rec.Base+s.Unit != u || s.ISB.Tb != cfg.unitStart(u) || s.ISB.Te != cfg.unitStart(u+1)-1 {
			return fmt.Errorf("%w: tilt frame for cell %v: finest slot %d is unit %d over ticks [%d,%d], want unit %d",
				ErrConfig, rec.Key(), i, rec.Base+s.Unit, s.ISB.Tb, s.ISB.Te, u)
		}
		if err := f.Push(s.ISB); err != nil {
			return fmt.Errorf("%w: seeding tilt frame for cell %v: %v", ErrConfig, rec.Key(), err)
		}
	}
	rec.Base, rec.Frame = base, f.State()
	return nil
}
