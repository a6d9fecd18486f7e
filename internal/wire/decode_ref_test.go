package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// decodeBatchRef is the byte-at-a-time batch decoder DecodeBatch replaced,
// kept as the reference the differential tests hold it to: the same
// columns on every payload that decodes, ErrCorrupt on the same payloads.
func decodeBatchRef(payload []byte, wantDims int, b *Batch) (int, error) {
	if len(payload) < 3 {
		return 0, fmt.Errorf("%w: %d-byte batch payload", ErrCorrupt, len(payload))
	}
	if payload[0] != Version {
		return 0, fmt.Errorf("%w: batch version %d, want %d", ErrCorrupt, payload[0], Version)
	}
	dims := int(payload[1])
	if dims < 1 || dims > MaxDims {
		return 0, fmt.Errorf("%w: batch names %d dimensions, want [1,%d]", ErrCorrupt, dims, MaxDims)
	}
	if wantDims > 0 && dims != wantDims {
		return 0, fmt.Errorf("%w: batch has %d dimensions, stream header promised %d", ErrCorrupt, dims, wantDims)
	}
	rest := payload[2:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, fmt.Errorf("%w: batch count varint", ErrCorrupt)
	}
	rest = rest[n:]
	// Every record takes at least 1 tick byte + dims member bytes + 8
	// value bytes, so an inflated count fails before any allocation.
	if count == 0 || count > MaxBatchRecords || count > uint64(len(rest))/uint64(dims+9) {
		return 0, fmt.Errorf("%w: batch claims %d records in %d bytes", ErrCorrupt, count, len(rest))
	}
	b.Reset(dims)
	nr := int(count)
	// count is bounded by the payload length above, so growing each column
	// to its exact final size up front is safe — and it keeps the decode
	// loops free of append-doubling (one allocation per column per batch,
	// none once the batch is recycled).
	if cap(b.Ticks) < nr {
		b.Ticks = make([]int64, 0, nr)
	}
	if cap(b.Values) < nr {
		b.Values = make([]float64, 0, nr)
	}
	for d := range b.Cols {
		if cap(b.Cols[d]) < nr {
			b.Cols[d] = make([]int32, 0, nr)
		}
	}
	prev := int64(0)
	for i := 0; i < nr; i++ {
		// Single-byte deltas dominate real streams (consecutive ticks);
		// decode them inline and leave the general varint off the fast path.
		var d int64
		if len(rest) > 0 && rest[0] < 0x80 {
			c := rest[0]
			d = int64(c>>1) ^ -int64(c&1)
			rest = rest[1:]
		} else {
			var n int
			d, n = binary.Varint(rest)
			if n <= 0 {
				return 0, fmt.Errorf("%w: record %d tick delta", ErrCorrupt, i)
			}
			rest = rest[n:]
		}
		tick := prev + d
		// Overflow would make tick deltas ambiguous on re-encode.
		if (d > 0 && tick < prev) || (d < 0 && tick > prev) {
			return 0, fmt.Errorf("%w: record %d tick overflows", ErrCorrupt, i)
		}
		b.Ticks = append(b.Ticks, tick)
		prev = tick
	}
	for d := 0; d < dims; d++ {
		col := b.Cols[d]
		for i := 0; i < nr; i++ {
			// Same fast path for members: dimension ids are small.
			if len(rest) > 0 && rest[0] < 0x80 {
				c := rest[0]
				col = append(col, int32(c>>1)^-int32(c&1))
				rest = rest[1:]
				continue
			}
			v, n := binary.Varint(rest)
			if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
				return 0, fmt.Errorf("%w: record %d member of dimension %d", ErrCorrupt, i, d)
			}
			col = append(col, int32(v))
			rest = rest[n:]
		}
		b.Cols[d] = col
	}
	if len(rest) != 8*nr {
		return 0, fmt.Errorf("%w: %d value bytes after %d records, want %d", ErrCorrupt, len(rest), nr, 8*nr)
	}
	for i := 0; i < nr; i++ {
		b.Values = append(b.Values, math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:])))
	}
	return nr, nil
}
