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

// IngestBatch consumes a columnar record batch with Ingest semantics; the
// caller may reuse b as soon as it returns. Records are ingested in order,
// boundary crossings close units, and the closed units accumulate across
// the whole batch. On a record error the records before it are already
// ingested and the error is returned with the units closed so far — except
// that an out-of-range member refuses its whole run, the records of one
// unit around it, before any is ingested.
//
// The batch is cut into maximal runs that stay inside the open unit, each
// accumulated by the one ingest loop (accumulate): per record one
// dictionary probe and the accumulator step, no boundary re-check. Each
// crossing barriers the shards, so closed-unit results — and the final
// state — are bitwise the same however the records are cut into batches,
// Ingest's runs of one included, record errors included.
func (e *Engine) IngestBatch(b *wire.Batch) ([]*UnitResult, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if err := checkBatchShape(b, e.part.layout.nd); err != nil {
		return nil, err
	}
	var closed []*UnitResult
	n := b.Len()
	for start := 0; start < n; {
		urs, err := e.reach(b.Ticks[start])
		closed = append(closed, urs...)
		if err != nil {
			return closed, err
		}
		end, lo, hi := start+1, e.openStart, e.openEnd
		for end < n && b.Ticks[end] >= lo && b.Ticks[end] < hi {
			end++
		}
		codes, err := e.dict.codes(b, start, end)
		if err != nil {
			return closed, err // nothing of the run is ingested: nothing sticks
		}
		if err := e.accumulate(b.Ticks[start:end], b.Values[start:end], codes); err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}

// accumulate is the ingest loop: per record of a run inside the open unit,
// its cells coded and range-checked by the caller, the cell's shard and
// ordinal from the dictionary — a cell's first record opens its accumulator
// in that shard's slab — and the accumulator step, on the caller's
// goroutine. A refused step fails the run and sticks; the records before it
// stand.
func (e *Engine) accumulate(ticks []int64, values []float64, codes []uint64) error {
	ticks, values = ticks[:len(codes)], values[:len(codes)]
	d, shards := e.dict, e.shards
	for j, code := range codes {
		c := d.slot(code)
		if c.key == 0 {
			c = d.add(c, code)
			e.open(c.part, code)
		}
		if acc := &shards[c.part].slab[c.ord]; !acc.Observe(ticks[j], values[j]) {
			e.err = e.refuse(acc, ticks[j], values[j])
			return e.err
		}
	}
	return nil
}
