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
		if err := e.ingestRun(b, start, end); err != nil {
			return closed, err
		}
		start = end
	}
	return closed, nil
}

// ingestRun is the tight loop behind the batch paths: it consumes records
// [lo,hi) of a shape-checked batch, every one of which must fall inside
// the open unit (IngestBatch cuts runs that way; a ShardedEngine's
// coordinator barriers boundaries before dispatching). A record outside
// the open unit means the caller broke that contract and fails the run.
// Per-record validation and accumulator updates are exactly Ingest's.
func (e *Engine) ingestRun(b *wire.Batch, lo, hi int) error {
	var key [cube.MaxDims]int32
	for i := lo; i < hi; i++ {
		tick := b.Ticks[i]
		if tick < e.openStart || tick >= e.openEnd {
			return fmt.Errorf("%w: tick %d outside open unit [%d,%d)", ErrRecord, tick, e.openStart, e.openEnd)
		}
		var acc *regression.Accumulator
		if e.dense != nil {
			idx := int64(0)
			inRange := true
			for d := 0; d < e.nd; d++ {
				m := b.Cols[d][i]
				if uint32(m) >= uint32(e.cards[d]) {
					inRange = false
					break
				}
				idx += int64(m) * e.strides[d]
			}
			if inRange {
				acc = e.dense[idx]
				if acc == nil {
					acc = e.newAccumulator()
					e.dense[idx] = acc
					e.denseActive = append(e.denseActive, idx)
				}
			}
		}
		if acc == nil {
			for d := 0; d < e.nd; d++ {
				key[d] = b.Cols[d][i]
			}
			var ok bool
			acc, ok = e.cells[key]
			if !ok {
				acc = e.newAccumulator()
				e.cells[key] = acc
			}
		}
		if tick < acc.NextTick() {
			return fmt.Errorf("%w: tick %d already consumed for cell (next %d)", ErrRecord, tick, acc.NextTick())
		}
		acc.AdvanceTo(tick)
		if err := acc.Add(tick, b.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// IngestBatch consumes a columnar record batch, partitioning it across the
// shards with one ancestor-table pass per dimension instead of resolving
// records one at a time. The batch is cut into maximal runs that stay
// inside the open unit; each boundary crossing barriers the shards exactly
// as record-at-a-time ingest would, so closed-unit results — and the final
// state — are bitwise-identical to feeding the same records through
// Ingest.
//
// Validation is batch-level: a segment with an out-of-range member or a
// tick before the open unit fails before any of the segment's records are
// routed (records of earlier segments, and units they closed, stand). The
// sole shard of a one-shard engine ingests each segment in place instead,
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
		tick := b.Ticks[start]
		if tick >= s.openEnd {
			target := (tick - s.cfg.StartTick) / int64(s.cfg.TicksPerUnit)
			urs, err := s.advanceTo(target)
			closed = append(closed, urs...)
			if err != nil {
				return closed, err
			}
		}
		openStart := s.openEnd - int64(s.cfg.TicksPerUnit)
		if tick < openStart {
			return closed, fmt.Errorf("%w: tick %d before open unit start %d", ErrRecord, tick, openStart)
		}
		// The segment is the maximal run staying inside the open unit.
		end := start + 1
		for end < n && b.Ticks[end] >= openStart && b.Ticks[end] < s.openEnd {
			end++
		}
		var err error
		if sh := s.sole(); sh != nil {
			err = sh.ingestRun(b, start, end)
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

// routeSegment partitions records [lo,hi) of a batch — all inside the open
// unit — into the per-shard pending buffers. The partition function is
// Partitioner.FoldColumns — the o-layer ancestor fold computed column-wise
// (one dense-table pass per dimension, then one finalize pass), shared
// verbatim with the multi-node router so batch, record, and cross-process
// routing all agree bit for bit.
func (s *ShardedEngine) routeSegment(b *wire.Batch, lo, hi int) error {
	nrec := hi - lo
	if cap(s.hashBuf) < nrec {
		s.hashBuf = make([]uint64, nrec)
	}
	hb := s.hashBuf[:nrec]
	if err := s.part.FoldColumns(b, lo, hi, hb); err != nil {
		return err
	}
	// Scatter the segment into the per-shard columnar sub-batches,
	// column-wise — one pass per column, like the ancestor fold — so each
	// source column streams through the cache once and no per-record
	// struct is materialized.
	// The scatter is cursor-based: a histogram pass counts each shard's
	// share, every destination column grows once, and the fill loops write
	// by index — no per-record append bookkeeping or capacity checks.
	if cap(s.scatterBase) < len(s.shards) {
		s.scatterBase = make([]int, len(s.shards))
		s.scatterCur = make([]int, len(s.shards))
	}
	base := s.scatterBase[:len(s.shards)]
	cur := s.scatterCur[:len(s.shards)]
	for i := range base {
		base[i] = 0
	}
	for _, sid := range hb {
		base[sid]++
	}
	for sid, c := range base {
		if c == 0 {
			continue
		}
		p := s.pending[sid]
		if p == nil {
			p = s.getBatch()
			s.pending[sid] = p
		}
		n0 := len(p.Ticks)
		p.Ticks = slices.Grow(p.Ticks, c)[:n0+c]
		p.Values = slices.Grow(p.Values, c)[:n0+c]
		for d := 0; d < s.nDims; d++ {
			p.Cols[d] = slices.Grow(p.Cols[d], c)[:n0+c]
		}
		base[sid] = n0
	}
	copy(cur, base)
	ticks, values := b.Ticks[lo:hi], b.Values[lo:hi]
	for i, sid := range hb {
		p := s.pending[sid]
		j := cur[sid]
		cur[sid] = j + 1
		p.Ticks[j] = ticks[i]
		p.Values[j] = values[i]
	}
	for d := 0; d < s.nDims; d++ {
		col := b.Cols[d][lo:hi]
		copy(cur, base)
		for i, sid := range hb {
			j := cur[sid]
			cur[sid] = j + 1
			s.pending[sid].Cols[d][j] = col[i]
		}
	}
	for sid, p := range s.pending {
		if p != nil && p.Len() >= ingestBatchSize {
			s.shards[sid].send(shardMsg{batch: p})
			s.pending[sid] = nil
		}
	}
	return nil
}
