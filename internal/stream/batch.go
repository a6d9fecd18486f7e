package stream

import (
	"fmt"
	"slices"

	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/wire"
)

// checkBatchShape validates a wire batch against the engine schema once,
// up front — the batch paths never re-check per record.
func checkBatchShape(b *wire.Batch, nDims int) error {
	if len(b.Cols) != nDims {
		return fmt.Errorf("%w: batch has %d dimensions, engine has %d", ErrRecord, len(b.Cols), nDims)
	}
	n := b.Len()
	if len(b.Values) != n {
		return fmt.Errorf("%w: batch has %d values for %d ticks", ErrRecord, len(b.Values), n)
	}
	for d, col := range b.Cols {
		if len(col) != n {
			return fmt.Errorf("%w: batch dimension %d has %d members for %d ticks", ErrRecord, d, len(col), n)
		}
	}
	return nil
}

// IngestBatch consumes a columnar record batch with Ingest semantics:
// records are ingested in order, boundary crossings close units, and the
// closed units accumulate across the whole batch. On a record error the
// records before it are already ingested (exactly as if they had arrived
// one at a time) and the error is returned with the units closed so far.
//
// The batch is cut into maximal runs inside the open unit; each run goes
// through ingestRun, whose per-record work is the accumulator update alone
// — no per-record call or boundary re-check.
func (e *Engine) IngestBatch(b *wire.Batch) ([]*UnitResult, error) {
	if err := checkBatchShape(b, e.nd); err != nil {
		return nil, err
	}
	var closed []*UnitResult
	n := b.Len()
	for start := 0; start < n; {
		tick := b.Ticks[start]
		if tick < e.openStart {
			return closed, fmt.Errorf("%w: tick %d before open unit start %d", ErrRecord, tick, e.openStart)
		}
		for tick >= e.openEnd {
			ur, err := e.closeUnit()
			if err != nil {
				return closed, err
			}
			closed = append(closed, ur)
		}
		end := start + 1
		for end < n && b.Ticks[end] >= e.openStart && b.Ticks[end] < e.openEnd {
			end++
		}
		if err := e.ingestRun(b, nil, start, end); err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}

// ingestRun is the tight loop behind the batch paths: it consumes records
// [lo,hi) of a shape-checked batch — or, given a selection, the records at
// positions sel[lo:hi] of it, which is how the shards of a ShardedEngine
// read their share of a segment in place. Every record must fall inside
// the open unit (IngestBatch cuts runs that way; a ShardedEngine's
// coordinator barriers boundaries before dispatching); one outside it
// means the caller broke that contract and fails the run. Per-record
// validation and accumulator updates are exactly Ingest's.
func (e *Engine) ingestRun(b *wire.Batch, sel []int32, lo, hi int) error {
	var key [cube.MaxDims]int32
	for j := lo; j < hi; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		tick := b.Ticks[i]
		if tick < e.openStart || tick >= e.openEnd {
			return fmt.Errorf("%w: tick %d outside open unit [%d,%d)", ErrRecord, tick, e.openStart, e.openEnd)
		}
		var acc *regression.Accumulator
		if e.dense != nil {
			if idx, ok := e.layout.indexAt(b.Cols, i); ok {
				acc = e.denseAcc(idx)
			}
		}
		if acc == nil {
			for d := 0; d < e.nd; d++ {
				key[d] = b.Cols[d][i]
			}
			if acc = e.cells[key]; acc == nil { // hits stay inline
				acc = e.cellAcc(key[:e.nd])
			}
		}
		if err := e.add(acc, tick, b.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// ingestCells is ingestRun over the records at positions sel of a dense
// m-layer's segment, whose cells column replaces the members.
func (e *Engine) ingestCells(b *wire.Batch, cells, sel []int32) error {
	for _, i := range sel {
		tick := b.Ticks[i]
		if tick < e.openStart || tick >= e.openEnd {
			return fmt.Errorf("%w: tick %d outside open unit [%d,%d)", ErrRecord, tick, e.openStart, e.openEnd)
		}
		if err := e.add(e.denseAcc(cells[i]), tick, b.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// IngestBatch consumes a columnar record batch; the caller may reuse b as
// soon as it returns. The batch is cut into maximal runs that stay inside
// the open unit, each dispatched to the shards as one segment
// (routeSegment); each boundary crossing barriers the shards exactly as
// record-at-a-time ingest would, so closed-unit results — and the final
// state — are bitwise-identical to feeding the same records through Ingest.
//
// Validation is batch-level: a segment with an out-of-range member or a
// tick before the open unit fails before any of its records is routed
// (earlier segments, and units they closed, stand). The sole shard of a
// one-shard engine ingests each segment in place, in the caller's batch,
// with Engine.IngestBatch's record-level semantics.
func (s *ShardedEngine) IngestBatch(b *wire.Batch) ([]*UnitResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if err := checkBatchShape(b, s.nDims); err != nil {
		return nil, err
	}
	var closed []*UnitResult
	n := b.Len()
	for start := 0; start < n; {
		urs, err := s.reach(b.Ticks[start])
		closed = append(closed, urs...)
		if err != nil {
			return closed, err
		}
		openStart := s.openEnd - int64(s.cfg.TicksPerUnit)
		// The segment is the maximal run staying inside the open unit.
		end := start + 1
		for end < n && b.Ticks[end] >= openStart && b.Ticks[end] < s.openEnd {
			end++
		}
		if len(s.shards) == 1 {
			s.segments.Add(1)
			err = s.shards[0].ingestRun(b, nil, nil, start, end)
		} else {
			err = s.routeSegment(b, start, end)
		}
		if err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}

// routeSegment appends records [lo,hi) of a batch — all inside the open
// unit — to the open segment and dispatches it. Partitioner.Select (shared
// verbatim with the multi-node router, so batch, record and cross-process
// routing agree bit for bit) runs first, on the caller's columns, so an
// out-of-range member fails the run before any record of it is routed. It
// writes a dense m-layer's cell indexes into the segment; the rest is copied
// in bulk, once, not per shard: the shards read it in place as b is reused.
func (s *ShardedEngine) routeSegment(b *wire.Batch, lo, hi int) error {
	nrec := hi - lo
	seg := s.openSegment(nrec)
	base := len(seg.cells) // seg.Len() on a dense m-layer, 0 on a sparse one
	var cells []int32
	if s.part.table != nil {
		seg.cells = slices.Grow(seg.cells, nrec)
		cells = seg.cells[base : base+nrec]
	} else {
		seg.hash = slices.Grow(seg.hash[:0], nrec)[:nrec]
	}
	if err := s.part.Select(b, lo, hi, cells, seg.hash, int32(seg.Len()), seg.sel); err != nil {
		return err
	}
	seg.cells = seg.cells[:base+len(cells)]
	seg.Ticks = append(seg.Ticks, b.Ticks[lo:hi]...)
	seg.Values = append(seg.Values, b.Values[lo:hi]...)
	for d := range seg.Cols {
		seg.Cols[d] = append(seg.Cols[d], b.Cols[d][lo:hi]...)
	}
	s.dispatch()
	return nil
}
