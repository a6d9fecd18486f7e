package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Frame layout, little-endian:
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// Framing and payload codec both live in internal/wire: a logged frame is
// the frame the binary ingest wire ships, its payload wire.AppendBatch's
// columnar batch, and segments are read through wire.FrameReader, the
// wire's own frame decoder. A zero length is never written — a tail of
// zero-filled blocks (the classic post-crash state on extent-allocating
// filesystems) must read as corruption, not as an endless run of valid
// empty frames.

// decodeBatch decodes one RGCWAL02 frame payload into b.
func decodeBatch(payload []byte, b *wire.Batch) error {
	if _, err := wire.DecodeBatch(payload, 0, b); err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return nil
}

// decodeRowBatch decodes one frame payload of an RGCWAL01 segment — the
// row layout older builds logged — into b:
//
//	uvarint record count ≥ 1
//	per record: uvarint member count, varint members..., varint tick,
//	            8-byte IEEE-754 value bits
//
// Member counts must all be the first record's, in [1, wire.MaxDims].
// Malformed payloads are ErrCorrupt; it never panics on arbitrary input.
func decodeRowBatch(payload []byte, b *wire.Batch) error {
	count, n := binary.Uvarint(payload)
	// Every record takes at least 1 (member count) + 1 (member) + 1 (tick)
	// + 8 (value) bytes, so a huge count in a small payload fails up front.
	if n <= 0 || count == 0 || count > uint64(len(payload))/11 {
		return fmt.Errorf("%w: row batch claims %d records in %d bytes", ErrCorrupt, count, len(payload))
	}
	rest := payload[n:]
	for i := 0; i < int(count); i++ {
		nm, n := binary.Uvarint(rest)
		if n <= 0 || nm < 1 || nm > wire.MaxDims || (i > 0 && nm != uint64(len(b.Cols))) {
			return fmt.Errorf("%w: row record %d member count", ErrCorrupt, i)
		}
		if i == 0 {
			b.Reset(int(nm))
		}
		rest = rest[n:]
		for d := range b.Cols {
			v, n := binary.Varint(rest)
			if n <= 0 || v != int64(int32(v)) {
				return fmt.Errorf("%w: row record %d member %d", ErrCorrupt, i, d)
			}
			b.Cols[d] = append(b.Cols[d], int32(v))
			rest = rest[n:]
		}
		tick, n := binary.Varint(rest)
		if n <= 0 || len(rest) < n+8 {
			return fmt.Errorf("%w: row record %d tick or value", ErrCorrupt, i)
		}
		b.Ticks = append(b.Ticks, tick)
		b.Values = append(b.Values, math.Float64frombits(binary.LittleEndian.Uint64(rest[n:])))
		rest = rest[n+8:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(rest), count)
	}
	return nil
}
