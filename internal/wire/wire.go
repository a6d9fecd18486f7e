// Package wire is the binary ingest format: length-prefixed, CRC32C-framed
// record batches laid out column-wise, shipped from producers (datagen, a
// future multi-node router) to streamd over the same byte streams that
// carry the text format. It also owns the frame/CRC machinery the
// write-ahead log uses — internal/wal frames delegate here, so the log and
// the wire ship identically framed payloads.
//
// A binary stream is:
//
//	stream header (16 bytes): magic "RGCWIRE1" | version | dims | 6 reserved
//	frame*            uint32 payload length | uint32 CRC32C(payload) | payload
//
// The magic byte sequence cannot begin a text record (those start with an
// ASCII digit or '-'), so a consumer peeks the first 8 bytes and picks the
// decoder — binary and text negotiate on the same stdin or socket with no
// out-of-band switch.
//
// Each frame carries one columnar record batch:
//
//	byte    payload version (1)
//	byte    dims
//	uvarint record count n
//	ticks   n varints, delta-coded (first absolute, then tick[i]-tick[i-1])
//	columns dims × n varints (member ids, one contiguous run per dimension)
//	values  n × 8-byte IEEE-754 little-endian bits
//
// Columns keep each dimension's members contiguous so the sharded router
// resolves o-layer ancestors one table pass per dimension, and varints plus
// tick deltas keep dense streams a fraction of their text size. Exact
// float64 bits make a binary-fed engine bitwise-identical to a text-fed
// one. Decoding is allocation-free after warm-up: payloads and columns land
// in reused buffers, and validation happens once per batch, not per record.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Typed failure classes, shared with the WAL: ErrTorn marks a byte stream
// that ends mid-frame (producer death, crash tail); ErrCorrupt marks data
// that is structurally invalid (bit rot, zero fill, version skew).
var (
	ErrTorn    = errors.New("wire: torn frame")
	ErrCorrupt = errors.New("wire: corrupt frame")
)

const (
	// Magic opens every binary stream. The first byte (0x52, 'R') can
	// never open a text record, which starts with a digit or '-'.
	Magic = "RGCWIRE1"
	// HeaderLen is the fixed stream-header size.
	HeaderLen = 16
	// Version is the stream and payload format version this package
	// speaks. Unknown versions are rejected, never guessed at.
	Version = 1

	// FrameHeaderLen is the fixed prefix before each frame's payload.
	FrameHeaderLen = 8
	// MaxFramePayload bounds a single frame's payload. Lengths beyond it
	// are corruption by definition, so a flipped length byte cannot make
	// a reader attempt a multi-gigabyte allocation.
	MaxFramePayload = 16 << 20

	// MaxDims bounds the per-batch dimension count the codec accepts;
	// streams have at most a handful of dimensions.
	MaxDims = 64
	// MaxBatchRecords bounds one batch. Together with the per-record
	// minimum encoded size it keeps a corrupt count from forcing a huge
	// column allocation.
	MaxBatchRecords = 1 << 20
	// DefaultBatchRecords is the Writer's flush threshold.
	DefaultBatchRecords = 2048
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends the framed payload to dst and returns the extended
// slice. A zero-length payload is never written by any producer — a tail
// of zero-filled blocks must read as corruption, not as an endless run of
// valid empty frames.
func EncodeFrame(dst []byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// DecodeFrame decodes the first frame in b. It returns the payload (a
// sub-slice of b), the total number of bytes the frame occupies, and one
// of:
//
//   - nil — a complete, checksummed frame;
//   - io.EOF — b is empty (clean end of the stream);
//   - ErrTorn — b ends mid-frame (producer died; WAL recovery truncates here);
//   - ErrCorrupt — the length or checksum is invalid (bit rot, zero fill).
//
// It never panics on arbitrary input.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, io.EOF
	}
	if len(b) < FrameHeaderLen {
		return nil, 0, fmt.Errorf("%w: %d-byte tail shorter than the frame header", ErrTorn, len(b))
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length == 0 || length > MaxFramePayload {
		return nil, 0, fmt.Errorf("%w: frame length %d outside (0,%d]", ErrCorrupt, length, MaxFramePayload)
	}
	total := FrameHeaderLen + int(length)
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: frame wants %d bytes, %d remain", ErrTorn, total, len(b))
	}
	payload = b[FrameHeaderLen:total]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return nil, 0, fmt.Errorf("%w: frame checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return payload, total, nil
}

// EncodeHeader appends the 16-byte stream header to dst.
func EncodeHeader(dst []byte, dims int) []byte {
	var hdr [HeaderLen]byte
	copy(hdr[:], Magic)
	hdr[8] = Version
	hdr[9] = byte(dims)
	return append(dst, hdr[:]...)
}

// DecodeHeader validates a 16-byte stream header and returns its dimension
// count.
func DecodeHeader(b []byte) (dims int, err error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("%w: %d-byte stream header, want %d", ErrTorn, len(b), HeaderLen)
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: bad stream magic %q", ErrCorrupt, b[:len(Magic)])
	}
	if b[8] != Version {
		return 0, fmt.Errorf("%w: stream version %d, want %d", ErrCorrupt, b[8], Version)
	}
	dims = int(b[9])
	if dims < 1 || dims > MaxDims {
		return 0, fmt.Errorf("%w: stream header names %d dimensions, want [1,%d]", ErrCorrupt, dims, MaxDims)
	}
	for _, r := range b[10:HeaderLen] {
		if r != 0 {
			return 0, fmt.Errorf("%w: stream header reserved bytes not zero", ErrCorrupt)
		}
	}
	return dims, nil
}

// controlMarker opens a control payload. It is deliberately distinct from
// every batch payload version, so a pre-control decoder that feeds a
// control frame to DecodeBatch rejects it as ErrCorrupt (unknown version)
// instead of misreading it — version skew fails loudly, never silently.
const controlMarker = 0xC0

// ControlOp enumerates the in-band control operations a binary stream can
// carry between record batches.
type ControlOp byte

const (
	// ControlAdvance tells the consumer to close every unit before Unit —
	// the cluster router's unit-boundary barrier. The router broadcasts it
	// to all nodes after flushing their buffered records, so every node
	// closes the same units at the same stream positions a single engine
	// would, keeping per-node state mergeable bit for bit.
	ControlAdvance ControlOp = 1
)

// Control is one decoded control frame.
type Control struct {
	Op   ControlOp
	Unit int64
}

// AppendControl appends the control payload encoding of c to dst and
// returns the extended slice. The caller frames the result, exactly like a
// batch payload.
func AppendControl(dst []byte, c Control) []byte {
	dst = append(dst, controlMarker, byte(c.Op))
	return binary.AppendVarint(dst, c.Unit)
}

// IsControl reports whether a frame payload is a control payload (as
// opposed to a record batch).
func IsControl(payload []byte) bool {
	return len(payload) > 0 && payload[0] == controlMarker
}

// DecodeControl decodes one control payload. Unknown operations and
// malformed encodings are ErrCorrupt.
func DecodeControl(payload []byte) (Control, error) {
	if len(payload) < 2 || payload[0] != controlMarker {
		return Control{}, fmt.Errorf("%w: %d-byte control payload", ErrCorrupt, len(payload))
	}
	c := Control{Op: ControlOp(payload[1])}
	if c.Op != ControlAdvance {
		return Control{}, fmt.Errorf("%w: unknown control op %d", ErrCorrupt, payload[1])
	}
	unit, n := binary.Varint(payload[2:])
	if n <= 0 || n != len(payload)-2 {
		return Control{}, fmt.Errorf("%w: control unit varint", ErrCorrupt)
	}
	c.Unit = unit
	return c, nil
}

// Batch is one columnar record batch: parallel arrays of ticks, one member
// column per dimension, and measure values. Index i across all columns is
// record i. The zero value is ready after Reset.
type Batch struct {
	Ticks  []int64
	Cols   [][]int32
	Values []float64
}

// Reset empties the batch and shapes it to dims columns, keeping every
// column's capacity so steady-state reuse stops allocating.
func (b *Batch) Reset(dims int) {
	b.Ticks = b.Ticks[:0]
	b.Values = b.Values[:0]
	if cap(b.Cols) < dims {
		cols := make([][]int32, dims)
		copy(cols, b.Cols)
		b.Cols = cols
	}
	b.Cols = b.Cols[:dims]
	for d := range b.Cols {
		b.Cols[d] = b.Cols[d][:0]
	}
}

// Len returns the record count.
func (b *Batch) Len() int { return len(b.Ticks) }

// Append adds one record. members must have exactly len(b.Cols) entries
// (the dims the batch was Reset to); the slice is copied column-wise, never
// retained.
func (b *Batch) Append(tick int64, members []int32, value float64) {
	b.Ticks = append(b.Ticks, tick)
	for d := range b.Cols {
		b.Cols[d] = append(b.Cols[d], members[d])
	}
	b.Values = append(b.Values, value)
}

// AppendBatch appends the columnar payload encoding of b to dst and
// returns the extended slice. The caller frames the result (EncodeFrame);
// Writer enforces the dims and record-count caps before encoding.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = append(dst, Version, byte(len(b.Cols)))
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	prev := int64(0)
	for _, t := range b.Ticks {
		dst = binary.AppendVarint(dst, t-prev)
		prev = t
	}
	for _, col := range b.Cols {
		for _, m := range col {
			dst = binary.AppendVarint(dst, int64(m))
		}
	}
	for _, v := range b.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeBatch decodes one frame payload into b, reusing its columns, and
// returns the record count. wantDims > 0 demands that exact dimension
// count (the stream-header contract); wantDims <= 0 accepts whatever the
// payload declares within [1,MaxDims]. All validation is batch-level and
// up front: version, dims, count bounds, a minimum-size check so a corrupt
// count cannot force a huge allocation, varint shape, tick overflow, and
// exact payload length. Malformed payloads return ErrCorrupt (b's contents
// are then unspecified); DecodeBatch never panics on arbitrary input.
func DecodeBatch(payload []byte, wantDims int, b *Batch) (int, error) {
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
	// count is bounded by the payload length above, so sizing each column
	// to its final length up front is safe — and the decode loops write by
	// index (one allocation per column per batch, none once the batch is
	// recycled).
	b.Ticks = slices.Grow(b.Ticks, nr)[:nr]
	b.Values = slices.Grow(b.Values, nr)[:nr]
	n, bad := decodeVarints(rest, b.Ticks)
	if bad >= 0 {
		return 0, fmt.Errorf("%w: record %d tick delta", ErrCorrupt, bad)
	}
	rest = rest[n:]
	prev := int64(0)
	for i, d := range b.Ticks {
		tick := prev + d
		// Overflow would make tick deltas ambiguous on re-encode.
		if (d > 0 && tick < prev) || (d < 0 && tick > prev) {
			return 0, fmt.Errorf("%w: record %d tick overflows", ErrCorrupt, i)
		}
		b.Ticks[i] = tick
		prev = tick
	}
	for d := range b.Cols {
		b.Cols[d] = slices.Grow(b.Cols[d], nr)[:nr]
		n, bad := decodeVarints(rest, b.Cols[d])
		if bad >= 0 {
			return 0, fmt.Errorf("%w: record %d member of dimension %d", ErrCorrupt, bad, d)
		}
		rest = rest[n:]
	}
	if len(rest) != 8*nr {
		return 0, fmt.Errorf("%w: %d value bytes after %d records, want %d", ErrCorrupt, len(rest), nr, 8*nr)
	}
	for i := range b.Values {
		b.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return nr, nil
}

// decodeVarints decodes len(dst) zig-zag varints from the front of src and
// returns the bytes they took, or — bad ≥ 0 — the index of the first one
// that is truncated, overlong or outside T's range.
//
// Tick deltas and member ids are single-byte varints on dense streams
// (consecutive ticks, small dimension ids), so eight payload bytes are
// loaded as one word: when no lane has its continuation bit set, all eight
// are zig-zag-decoded at once — value>>1 in every lane, XORed with 0xff
// where the lane's sign bit was set, which is the value as a signed byte —
// and stored by index. A word with a longer varint in it, or the tail of
// the column, goes through the byte-at-a-time path eight values at a time.
func decodeVarints[T int32 | int64](src []byte, dst []T) (n, bad int) {
	for i := 0; i < len(dst); {
		if i+8 <= len(dst) && n+8 <= len(src) {
			if w := binary.LittleEndian.Uint64(src[n:]); w&0x8080808080808080 == 0 {
				z := (w >> 1 & 0x3f3f3f3f3f3f3f3f) ^ (w&0x0101010101010101)*0xff
				out := dst[i : i+8 : i+8]
				out[0], out[1], out[2], out[3] = T(int8(z)), T(int8(z>>8)), T(int8(z>>16)), T(int8(z>>24))
				out[4], out[5], out[6], out[7] = T(int8(z>>32)), T(int8(z>>40)), T(int8(z>>48)), T(int8(z>>56))
				i, n = i+8, n+8
				continue
			}
		}
		for end := min(i+8, len(dst)); i < end; i++ {
			if n < len(src) && src[n] < 0x80 {
				dst[i] = T(src[n]>>1) ^ -T(src[n]&1)
				n++
				continue
			}
			v, size := binary.Varint(src[n:])
			if size <= 0 || int64(T(v)) != v {
				return n, i
			}
			dst[i] = T(v)
			n += size
		}
	}
	return n, -1
}
