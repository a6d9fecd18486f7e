package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Frame layout, little-endian:
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// The framing itself lives in internal/wire — the log and the binary
// ingest wire ship identically framed payloads — and this file keeps the
// log's batch payload codec plus thin wrappers that translate wire's
// corruption sentinel into the log's. A zero length is never written — a
// tail of zero-filled blocks (the classic post-crash state on
// extent-allocating filesystems) must read as corruption, not as an
// endless run of valid empty frames.
//
// Batch payload layout (row-oriented, unlike the wire's columnar batches —
// replay walks records in order and never needs columns):
//
//	uvarint record count
//	per record: uvarint member count, varint members..., varint tick,
//	            8-byte IEEE-754 value bits
const (
	// MaxFramePayload bounds a single frame's payload. Lengths beyond it
	// are corruption by definition, so a flipped length byte cannot make a
	// reader attempt a multi-gigabyte allocation.
	MaxFramePayload = wire.MaxFramePayload
	// maxRecordMembers bounds the per-record member count the codec
	// accepts; streams have at most a handful of dimensions.
	maxRecordMembers = wire.MaxDims
)

// EncodeFrame appends the framed payload to dst and returns the extended
// slice.
func EncodeFrame(dst []byte, payload []byte) []byte {
	return wire.EncodeFrame(dst, payload)
}

// DecodeFrame decodes the first frame in b. It returns the payload (a
// sub-slice of b), the total number of bytes the frame occupies, and one
// of:
//
//   - nil — a complete, checksummed frame;
//   - io.EOF — b is empty (clean end of the log);
//   - ErrTorn — b ends mid-frame (a torn tail; recovery truncates here);
//   - ErrCorrupt — the length or checksum is invalid (bit rot, zero fill).
//
// It never panics on arbitrary input.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	payload, n, err = wire.DecodeFrame(b)
	if err != nil && errors.Is(err, wire.ErrCorrupt) {
		// ErrTorn is shared outright; corruption keeps the log's own
		// sentinel (it also covers manifest and header damage) while
		// remaining matchable as the wire's.
		return nil, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return payload, n, err
}

// appendBatch appends the batch payload of b's records to dst and returns
// the extended slice, reading the columns row by row.
func appendBatch(dst []byte, b *wire.Batch) []byte {
	dims := len(b.Cols)
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	for i, tick := range b.Ticks {
		dst = binary.AppendUvarint(dst, uint64(dims))
		for d := 0; d < dims; d++ {
			dst = binary.AppendVarint(dst, int64(b.Cols[d][i]))
		}
		dst = binary.AppendVarint(dst, tick)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Values[i]))
	}
	return dst
}

// DecodeBatch decodes one frame payload, invoking fn for each record in
// order, and returns the record count. The Record passed to fn aliases
// scratch storage reused across calls — copy Members to retain it. A nil
// fn just validates and counts. Malformed payloads (bad varints, oversized
// member counts, trailing garbage) return ErrCorrupt; DecodeBatch never
// panics on arbitrary input.
func DecodeBatch(payload []byte, fn func(Record) error) (int, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, fmt.Errorf("%w: batch count varint", ErrCorrupt)
	}
	// Every record takes at least 1 (member count) + 1 (tick) + 8 (value)
	// bytes, so a huge count in a small payload fails up front.
	if count > uint64(len(payload)) {
		return 0, fmt.Errorf("%w: batch claims %d records in %d bytes", ErrCorrupt, count, len(payload))
	}
	b := payload[n:]
	var members []int32
	for i := uint64(0); i < count; i++ {
		nm, n := binary.Uvarint(b)
		if n <= 0 || nm > maxRecordMembers {
			return 0, fmt.Errorf("%w: record %d member count", ErrCorrupt, i)
		}
		b = b[n:]
		members = members[:0]
		for j := uint64(0); j < nm; j++ {
			v, n := binary.Varint(b)
			if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
				return 0, fmt.Errorf("%w: record %d member %d", ErrCorrupt, i, j)
			}
			members = append(members, int32(v))
			b = b[n:]
		}
		tick, n := binary.Varint(b)
		if n <= 0 {
			return 0, fmt.Errorf("%w: record %d tick", ErrCorrupt, i)
		}
		b = b[n:]
		if len(b) < 8 {
			return 0, fmt.Errorf("%w: record %d value", ErrCorrupt, i)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if fn != nil {
			if err := fn(Record{Tick: tick, Value: value, Members: members}); err != nil {
				return 0, err
			}
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(b), count)
	}
	return int(count), nil
}
