package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// encodeRows is the RGCWAL01 row payload writer, kept for tests only: it
// takes rows, so it can produce the ragged and oversized member counts
// decodeRowBatch's checks exist for.
func encodeRows(dst []byte, recs []Record) []byte {
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

// FuzzDecodeFrame drives the recovery decoders — wire.FrameReader, which
// walkSegment reads segments through, then both payload decoders — with
// arbitrary bytes: every input must yield a clean decode, io.EOF, or a
// typed ErrTorn/ErrCorrupt — never a panic, and never an undeclared error.
// This is exactly the surface a crashed or bit-rotted segment tail
// exercises.
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: a healthy frame, a torn tail at several offsets, a zero fill,
	// a bit flip, an oversized length prefix, two frames, and one frame of
	// an RGCWAL01 segment.
	recs := []Record{
		{Tick: 7, Value: 3.5, Members: []int32{1, 2}},
		{Tick: 8, Value: -1, Members: []int32{0, 5}},
	}
	valid := wire.EncodeFrame(nil, wire.AppendBatch(nil, batchOf(recs...)))
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
	f.Add(wire.EncodeFrame(nil, encodeRows(nil, recs)))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Walk frames as walkSegment does; each frame consumes its header
		// and payload, within the input.
		frames := wire.NewFrameReader(bufio.NewReader(bytes.NewReader(b)))
		var batch wire.Batch
		for {
			start := frames.Offset()
			payload, err := frames.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("FrameReader.Next: undeclared error %v", err)
				}
				return
			}
			if n := frames.Offset() - start; n != int64(wire.FrameHeaderLen+len(payload)) || frames.Offset() > int64(len(b)) {
				t.Fatalf("FrameReader consumed %d bytes, to offset %d of %d", n, frames.Offset(), len(b))
			}
			// A CRC-valid frame still gets full batch validation under
			// either segment format; the only legal failure is ErrCorrupt,
			// and a decoded batch is well-shaped.
			for _, decode := range []func([]byte, *wire.Batch) error{decodeBatch, decodeRowBatch} {
				if err := decode(payload, &batch); err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("decode: undeclared error %v", err)
					}
					continue
				}
				n := batch.Len()
				if n == 0 || len(batch.Values) != n || len(batch.Cols) < 1 || len(batch.Cols) > wire.MaxDims {
					t.Fatalf("decoded a malformed batch: %d ticks, %d values, %d columns", n, len(batch.Values), len(batch.Cols))
				}
				for d, col := range batch.Cols {
					if len(col) != n {
						t.Fatalf("column %d has %d members for %d ticks", d, len(col), n)
					}
				}
			}
		}
	})
}

// FuzzReplaySegment puts arbitrary bytes behind either segment magic as a
// log's only, and so newest, segment. ReplayBatches must never panic and
// fails only with ErrCorrupt or ErrTorn; the records it delivers are the
// records Open's recovery scan keeps, since the two share one reader; and
// after Open repaired the log, a replay still delivers them.
func FuzzReplaySegment(f *testing.F) {
	recs := []Record{
		{Tick: 7, Value: 3.5, Members: []int32{1, 2}},
		{Tick: 8, Value: -1, Members: []int32{0, 5}},
	}
	frame := wire.EncodeFrame(nil, wire.AppendBatch(nil, batchOf(recs...)))
	rows := wire.EncodeFrame(nil, encodeRows(nil, recs))
	f.Add(false, append(append([]byte(nil), frame...), frame...))
	f.Add(false, append(append([]byte(nil), frame...), frame[:len(frame)-3]...))
	f.Add(true, append(append([]byte(nil), rows...), make([]byte, 32)...))
	f.Add(true, frame)
	f.Add(false, []byte{})

	f.Fuzz(func(t *testing.T, legacy bool, data []byte) {
		dir := t.TempDir()
		hdr := []byte(segmentMagic)
		if legacy {
			hdr = []byte(legacyMagic)
		}
		hdr = binary.LittleEndian.AppendUint64(hdr, 0)
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), append(hdr, data...), 0o666); err != nil {
			t.Fatal(err)
		}
		delivered := int64(0)
		end, err := ReplayBatches(dir, 0, func(seq int64, b *wire.Batch) error {
			if seq != delivered {
				t.Fatalf("batch at sequence %d, want %d", seq, delivered)
			}
			delivered += int64(b.Len())
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
				t.Fatalf("ReplayBatches: undeclared error %v", err)
			}
			return
		}
		if end != delivered {
			t.Fatalf("ReplayBatches returned %d, delivered %d records", end, delivered)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open after a clean replay: %v", err)
		}
		if l.Seq() != delivered {
			t.Fatalf("Open keeps %d records, replay delivered %d", l.Seq(), delivered)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := ReplayBatches(dir, 0, func(int64, *wire.Batch) error { return nil }); err != nil || again != delivered {
			t.Fatalf("replay after Open: %d records (err %v), want %d", again, err, delivered)
		}
	})
}
