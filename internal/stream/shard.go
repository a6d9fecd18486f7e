package stream

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/timeseries"
)

// shard is one partition: the open unit's accumulators of the cells its
// partition owns, those o-cells' frames, and what closing a unit over them
// keeps from one close to the next. The coordinator fills its slab
// (Engine.open, Engine.Ingest), cuts and restores it; a unit close runs on
// shard 0 on the coordinator's goroutine and on every other shard on a
// goroutine that ends with the close (Engine.advanceTo), while the
// coordinator waits. So no shard is touched by two goroutines at once, and
// a closing shard reads only its engine's immutable fields (cfg, part).
type shard struct {
	e *Engine
	// slab[o] is the accumulator of the open unit's cell with ordinal o and
	// codes[o] its code, sized by the unit's active cells and emptied at
	// every close.
	slab  []regression.Accumulator
	codes []uint64
	// frames holds the history of every o-cell of the partition seen so
	// far, in coordinate order: one frame record per cell, its finest
	// level the per-unit history. It is the list the shard's last snapshot
	// holds, so no record in it is ever written; a close replaces the list.
	frames []CellFrame
	// inputs/members hold each closed unit's m-layer batch, reused from
	// close to close: nothing the cube returns aliases them.
	inputs  []core.Input
	members []int32
	// ws is what m/o-cubing keeps from one unit's close to the next;
	// cpCells/cpMembers are what AppendCheckpoint has the shard cut its
	// cells into; order is byCode's list.
	ws        *core.Workspace
	order     []int32
	cpCells   []CellState
	cpMembers []int32
}

// closeUnits closes units [from, to) in order and returns their snapshots.
func (sh *shard) closeUnits(from, to int64) ([]*Snapshot, error) {
	snaps := make([]*Snapshot, 0, to-from)
	for u := from; u < to; u++ {
		s, err := sh.closeUnit(u)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

// closeUnit closes unit u, the shard's open one: it cubes the partition's
// cells of the unit, raises their alerts and registers the unit with every
// frame of the partition. It returns the partition's snapshot of the unit,
// which the coordinator merges with the other shards' (MergeSnapshots).
func (sh *shard) closeUnit(u int64) (*Snapshot, error) {
	cfg, layout := &sh.e.cfg, &sh.e.part.layout
	lo, hi := cfg.unitStart(u), cfg.unitStart(u+1)-1
	s := &Snapshot{Unit: u, Interval: timeseries.Interval{Tb: lo, Te: hi}, Chain: cfg.TiltLevels}

	// Member tuples are decoded into the arena, so the slab empties at once.
	nd := layout.nd
	inputs := sh.inputs[:0]
	if inputs == nil {
		inputs = make([]core.Input, 0, len(sh.slab))
	}
	// The cells go in coordinate order: cubing accumulates floats in input
	// order, so this makes every unit result bitwise reproducible across
	// runs and identical at every shard count.
	arena := sh.members[:0]
	for _, o := range sh.byCode() {
		acc := &sh.slab[o]
		acc.AdvanceTo(hi + 1) // zero-pad to the unit boundary, in O(1)
		isb, err := acc.Snapshot()
		if err != nil {
			return nil, err
		}
		start := len(arena)
		arena = slices.Grow(arena, nd)[:start+nd]
		layout.decode(sh.codes[o], arena[start:])
		inputs = append(inputs, core.Input{Members: arena[start:len(arena):len(arena)], Measure: isb})
	}
	// Stream data flows in-and-out: the ordinals go with the unit. A slab
	// far larger than this unit needed is dropped, so one bursty unit
	// cannot pin its peak footprint forever.
	if bound := 4*len(inputs) + 1024; cap(sh.slab) > bound {
		sh.slab, sh.codes, sh.order = nil, nil, nil
	}
	sh.slab, sh.codes = sh.slab[:0], sh.codes[:0]
	if bound := 4*len(inputs) + 1024; cap(inputs) > bound {
		inputs = append(make([]core.Input, 0, bound), inputs...)
		// The arena's contents are reached only through inputs' Members
		// (which keep the old backing alive for this unit); only the
		// stored capacity matters for the next reuse.
		arena = make([]int32, 0, bound*nd)
	}
	sh.inputs, sh.members = inputs, arena
	if len(inputs) > 0 {
		res, err := sh.ws.MOCubing(inputs, cfg.Threshold)
		if err != nil {
			return nil, err
		}
		s.Result = res
		s.Alerts = sh.raiseAlerts(u, res)
	}
	frames, err := AdvanceFrames(sh.frames, s.Result, u, s.Interval, cfg.TiltLevels)
	if err != nil {
		return nil, err
	}
	sh.frames, s.Frames = frames, frames
	return s, nil
}

// raiseAlerts returns the unit's alerts in canonical order (compareAlerts):
// the o-cells come in canonical order, and each raises its slope exception
// before its slope change.
func (sh *shard) raiseAlerts(u int64, res *core.Result) []Alert {
	cfg := &sh.e.cfg
	var alerts []Alert
	oThr := cfg.Threshold.Threshold(cfg.Schema.OLayer())
	for _, c := range res.OCells() {
		key, isb := c.Key, c.ISB
		if exception.IsException(isb, oThr) {
			alerts = append(alerts, Alert{Unit: u, Kind: SlopeException, Cell: key, ISB: isb})
		}
		if cfg.Delta != nil {
			if f := frameOf(sh.frames, key); f != nil {
				// The frame's last slot is always the previous unit: a unit
				// the cell sat out was registered as a zero regression.
				finest := f.Frame.Levels[0].Slots
				if n := len(finest); n > 0 && cfg.Delta.Exceptional(isb, finest[n-1].ISB, true) {
					alerts = append(alerts, Alert{Unit: u, Kind: SlopeChange, Cell: key, ISB: isb})
				}
			}
		}
	}
	return alerts
}

// byCode returns the ordinals of the shard's open cells in code order,
// which cellLayout makes coordinate order. The list is the shard's, reused
// call to call.
func (sh *shard) byCode() []int32 {
	order := sh.order[:0]
	for o := range sh.codes {
		order = append(order, int32(o))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(sh.codes[a], sh.codes[b]) })
	sh.order = order
	return order
}

// compareAlerts is the canonical alert order: unit, then cell
// (cube.CompareKeys), then kind.
func compareAlerts(a, b Alert) int {
	return cmp.Or(cmp.Compare(a.Unit, b.Unit), cube.CompareKeys(a.Cell, b.Cell), cmp.Compare(a.Kind, b.Kind))
}
