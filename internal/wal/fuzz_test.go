package wal

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/wire"
)

// encodeBatch is the decoder tests' reference encoder of the batch payload:
// unlike Log.AppendColumnar, which writes every record of a wire.Batch with
// the batch's one dimension count, it takes rows and so can produce the
// ragged and oversized member counts DecodeBatch's checks exist for.
func encodeBatch(dst []byte, recs []Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(r.Members)))
		for _, m := range r.Members {
			dst = binary.AppendVarint(dst, int64(m))
		}
		dst = binary.AppendVarint(dst, r.Tick)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Value))
	}
	return dst
}

// FuzzDecodeFrame drives the recovery decoder with arbitrary bytes: every
// input must yield a clean decode, io.EOF, or a typed ErrTorn/ErrCorrupt —
// never a panic, and never an undeclared error. This is exactly the
// surface a crashed or bit-rotted segment tail exercises.
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: a healthy frame, a torn tail at several offsets, a zero fill,
	// a bit flip, and an oversized length prefix.
	valid := EncodeFrame(nil, encodeBatch(nil, []Record{
		{Tick: 7, Value: 3.5, Members: []int32{1, 2}},
		{Tick: 8, Value: -1, Members: []int32{0, 5}},
	}))
	f.Add(valid)
	f.Add(valid[:3])
	f.Add(valid[:wire.FrameHeaderLen])
	f.Add(valid[:len(valid)-2])
	f.Add(make([]byte, 64))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add(append(append([]byte(nil), valid...), valid...)) // two frames

	f.Fuzz(func(t *testing.T, b []byte) {
		// Walk frames exactly as scanSegment does, bounding the walk by
		// the input length (each frame consumes ≥ wire.FrameHeaderLen bytes).
		rest := b
		for {
			payload, n, err := DecodeFrame(rest)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("DecodeFrame: undeclared error %v", err)
				}
				return
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(rest))
			}
			// A CRC-valid frame still gets full batch validation; the only
			// legal failure is ErrCorrupt.
			count, err := DecodeBatch(payload, nil)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBatch: undeclared error %v", err)
			}
			if err == nil {
				// A valid batch must re-deliver the same count through the
				// callback path, and member slices must respect the bound.
				delivered := 0
				if _, err := DecodeBatch(payload, func(r Record) error {
					if len(r.Members) > maxRecordMembers {
						t.Fatalf("record with %d members escaped validation", len(r.Members))
					}
					delivered++
					return nil
				}); err != nil {
					t.Fatalf("DecodeBatch callback pass failed after nil-fn pass: %v", err)
				}
				if delivered != count {
					t.Fatalf("DecodeBatch delivered %d records, counted %d", delivered, count)
				}
			}
			rest = rest[n:]
		}
	})
}

// FuzzEncodeDecodeBatch round-trips generated records through the batch
// codec: whatever encodes must decode back exactly.
func FuzzEncodeDecodeBatch(f *testing.F) {
	f.Add(int64(0), 0.0, int64(3), 5)
	f.Add(int64(-9), 1e300, int64(1<<40), 1)
	f.Add(int64(1<<62), -0.5, int64(-7), 8)
	f.Fuzz(func(t *testing.T, tick int64, value float64, memberSeed int64, n int) {
		if n < 0 || n > 32 {
			return
		}
		var recs []Record
		for i := 0; i < n; i++ {
			members := make([]int32, (i+int(memberSeed&3))%8)
			for j := range members {
				members[j] = int32((memberSeed >> (j * 4)) & 0xffff)
			}
			recs = append(recs, Record{Tick: tick + int64(i), Value: value * float64(i+1), Members: members})
		}
		payload := encodeBatch(nil, recs)
		var got []Record
		count, err := DecodeBatch(payload, func(r Record) error {
			cp := r
			cp.Members = append([]int32(nil), r.Members...)
			got = append(got, cp)
			return nil
		})
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if count != len(recs) || len(got) != len(recs) {
			t.Fatalf("decoded %d/%d records, want %d", count, len(got), len(recs))
		}
		for i := range recs {
			if got[i].Tick != recs[i].Tick || got[i].Value != recs[i].Value {
				// NaN encodes to the same bit pattern it decodes from, but
				// != fails on NaN; compare only when comparable.
				if !(recs[i].Value != recs[i].Value && got[i].Value != got[i].Value) {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
				}
			}
			if len(got[i].Members) != len(recs[i].Members) {
				t.Fatalf("record %d members %v, want %v", i, got[i].Members, recs[i].Members)
			}
			for j := range recs[i].Members {
				if got[i].Members[j] != recs[i].Members[j] {
					t.Fatalf("record %d members %v, want %v", i, got[i].Members, recs[i].Members)
				}
			}
		}
	})
}
