package stream

import (
	"fmt"

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
// records before it are already ingested and the error is returned with
// the units closed so far — except that an out-of-range member refuses its
// whole run, the records of one unit around it, before any is ingested.
//
// The batch is cut into maximal runs inside the open unit; each run goes
// through ingestRun, whose per-record work is one dictionary lookup and
// the accumulator step — no per-record call or boundary re-check.
func (e *Engine) IngestBatch(b *wire.Batch) ([]*UnitResult, error) {
	if err := checkBatchShape(b, e.layout.nd); err != nil {
		return nil, err
	}
	var closed []*UnitResult
	var err error
	n := b.Len()
	for start := 0; start < n; {
		if closed, err = e.reach(b.Ticks[start], closed); err != nil {
			return closed, err
		}
		end, lo, hi := start+1, e.openStart, e.openEnd
		for end < n && b.Ticks[end] >= lo && b.Ticks[end] < hi {
			end++
		}
		codes, err := e.dict.codes(b, start, end)
		if err != nil {
			return closed, err
		}
		if err := e.ingestRun(b.Ticks[start:end], b.Values[start:end], codes); err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}

// ingestRun consumes a run of records inside the open unit, given as
// columns, their cells coded and range-checked by the caller
// (cellDict.codes refuses an out-of-range member before any record of the
// run is ingested): per record, the cell's ordinal from the engine's own
// dictionary and the accumulator step.
func (e *Engine) ingestRun(ticks []int64, values []float64, codes []uint64) error {
	ticks, values = ticks[:len(codes)], values[:len(codes)]
	for j, code := range codes {
		c := e.dict.slot(code)
		if c.key == 0 {
			c = e.dict.add(c, code)
			e.open(code)
		}
		acc := &e.slab[c.ord]
		if !acc.Observe(ticks[j], values[j]) {
			return e.refuse(acc, ticks[j], values[j])
		}
	}
	return nil
}

// IngestBatch consumes a columnar record batch; the caller may reuse b as
// soon as it returns. The batch is cut into maximal runs that stay inside
// the open unit, each accumulated by the one ingest loop (accumulate); each
// boundary crossing barriers the shards exactly as record-at-a-time ingest
// would, so closed-unit results — and the final state — are
// bitwise-identical to feeding the same records through Ingest, and to
// Engine.IngestBatch, record errors included.
func (s *ShardedEngine) IngestBatch(b *wire.Batch) ([]*UnitResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if err := checkBatchShape(b, s.part.layout.nd); err != nil {
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
		end, lo, hi := start+1, s.openEnd-int64(s.cfg.TicksPerUnit), s.openEnd
		for end < n && b.Ticks[end] >= lo && b.Ticks[end] < hi {
			end++
		}
		codes, err := s.dict.codes(b, start, end)
		if err != nil {
			return closed, err // nothing of the run is ingested: nothing sticks
		}
		if err := s.accumulate(b.Ticks[start:end], b.Values[start:end], codes); err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}
