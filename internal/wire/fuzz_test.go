package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// wordSeeds are payloads aimed at the decoder's eight-varints-a-word path
// and its hand-overs to the byte-at-a-time one: runs of 7, 8 and 9
// single-byte varints with a multi-byte one behind them, a continuation
// bit in each of the eight lanes of a word, a tick that overflows in the
// middle of a word of single-byte deltas, and payloads that end mid-word.
func wordSeeds() [][]byte {
	var seeds [][]byte
	// build makes an n-record, one-dimension batch: consecutive ticks and
	// small members, then whatever edit applies.
	build := func(n int, edit func(b *Batch)) []byte {
		var b Batch
		b.Reset(1)
		for i := 0; i < n; i++ {
			b.Append(int64(i), []int32{int32(i % 5)}, float64(i))
		}
		edit(&b)
		return AppendBatch(nil, &b)
	}
	for _, run := range []int{7, 8, 9} {
		seeds = append(seeds, build(run+12, func(b *Batch) {
			// Record 0's tick is a single-byte varint too, so the column
			// opens with exactly `run` of them.
			for i := run; i < b.Len(); i++ {
				b.Ticks[i] += 1000
			}
			b.Cols[0][run] = 200
		}))
	}
	for lane := 0; lane < 8; lane++ {
		seeds = append(seeds, build(24, func(b *Batch) {
			b.Cols[0][8+lane] = 100 + int32(lane)
			b.Ticks[8+lane] += 70
			for i := 9 + lane; i < b.Len(); i++ {
				b.Ticks[i] += 70
			}
		}))
	}
	// Ticks climb to MaxInt64 and wrap at record 12: AppendBatch's wrapping
	// subtraction writes the step as delta 1, in the second word of
	// single-byte deltas.
	seeds = append(seeds, build(16, func(b *Batch) {
		for i := range b.Ticks {
			b.Ticks[i] = math.MaxInt64 - 11 + int64(i)
		}
	}))
	// Sixteen records whose tick column is long enough (fifteen 10-byte
	// deltas and a 3-byte one) that the count bound passes with only seven
	// bytes left for the members: the payload ends mid-word.
	short := []byte{Version, 1, 16}
	for i := 0; i < 15; i++ {
		step := int64(math.MaxInt64)
		if i%2 == 1 {
			step = -step
		}
		short = binary.AppendVarint(short, step)
	}
	short = binary.AppendVarint(short, 5000)
	seeds = append(seeds, append(short, 2, 4, 6, 8, 2, 4, 6))
	// And a sound payload cut inside each column.
	whole := build(40, func(*Batch) {})
	seeds = append(seeds, whole[:3+20], whole[:3+40+4], whole[:len(whole)-3])
	return seeds
}

// FuzzWireDecodeFrame drives the wire decoder stack — frame walk plus
// columnar batch decode — with arbitrary bytes. Every input must yield a
// clean decode, io.EOF, or a typed ErrTorn/ErrCorrupt; never a panic and
// never an undeclared error — and DecodeBatch must agree with the
// byte-at-a-time reference decoder (decode_ref_test.go) on every payload.
// This is the surface a hostile or damaged producer stream exercises on
// streamd's stdin.
func FuzzWireDecodeFrame(f *testing.F) {
	// Seeds: a healthy frame around a real batch, torn tails at several
	// offsets, zero fill, a bit flip, an oversized length prefix, a
	// zero-length frame, and two frames back to back.
	valid := EncodeFrame(nil, AppendBatch(nil, sampleBatch(2, 3)))
	f.Add(valid)
	f.Add(valid[:3])
	f.Add(valid[:FrameHeaderLen])
	f.Add(valid[:len(valid)-2])
	f.Add(make([]byte, 64))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add(append(append([]byte(nil), valid...), valid...))
	// A frame whose payload is valid framing but corrupt batch bytes.
	f.Add(EncodeFrame(nil, []byte{Version, 200, 12, 1, 2, 3}))
	for _, payload := range wordSeeds() {
		f.Add(EncodeFrame(nil, payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		rest := data
		for {
			payload, n, err := DecodeFrame(rest)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("DecodeFrame: undeclared error %v", err)
				}
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(rest))
			}
			count, err := DecodeBatch(payload, 0, &b)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBatch: undeclared error %v", err)
			}
			// The byte-at-a-time reference decides what decodes, and to
			// what: the same records (compared as their canonical
			// encoding, so every float bit counts) or the same refusal.
			var ref Batch
			refCount, refErr := decodeBatchRef(payload, 0, &ref)
			if (err == nil) != (refErr == nil) || (refErr != nil && !errors.Is(refErr, ErrCorrupt)) {
				t.Fatalf("DecodeBatch: %v; reference decoder: %v", err, refErr)
			}
			if err == nil && (count != refCount || !bytes.Equal(AppendBatch(nil, &b), AppendBatch(nil, &ref))) {
				t.Fatalf("DecodeBatch decoded %d records, reference %d, or other columns", count, refCount)
			}
			if err == nil {
				// A batch that decodes must re-encode to bytes that decode
				// to the same count — the codec is its own inverse on the
				// valid subset.
				re := AppendBatch(nil, &b)
				var b2 Batch
				n2, err := DecodeBatch(re, len(b.Cols), &b2)
				if err != nil || n2 != count {
					t.Fatalf("re-encode decoded %d, %v; want %d", n2, err, count)
				}
			}
			rest = rest[n:]
		}

		// The stream reader must fail with the same typed errors on the
		// raw input treated as a full stream (header + frames).
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader: undeclared error %v", err)
			}
			return
		}
		for {
			if _, err := r.Next(&b); err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Reader.Next: undeclared error %v", err)
				}
				return
			}
		}
	})
}

// The word seeds do what they are named for, without the fuzzer: the
// mixed-width and every-lane payloads decode, to the reference decoder's
// columns; the overflow and the short payloads are ErrCorrupt in both.
func TestDecodeBatchWordSeeds(t *testing.T) {
	seeds := wordSeeds()
	const decodable = 3 + 8 // the run and lane seeds
	for i, payload := range seeds {
		var got, ref Batch
		n, err := DecodeBatch(payload, 1, &got)
		refN, refErr := decodeBatchRef(payload, 1, &ref)
		if i >= decodable {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(refErr, ErrCorrupt) {
				t.Fatalf("seed %d: errors %v / %v, want ErrCorrupt from both", i, err, refErr)
			}
			continue
		}
		if err != nil || refErr != nil || n != refN {
			t.Fatalf("seed %d: decoded %d, %v; reference %d, %v", i, n, err, refN, refErr)
		}
		if !bytes.Equal(AppendBatch(nil, &got), payload) || !bytes.Equal(AppendBatch(nil, &ref), payload) {
			t.Fatalf("seed %d: decoded columns do not re-encode to the payload", i)
		}
	}
	// The overflow is found where it happens.
	var b Batch
	if _, err := DecodeBatch(seeds[decodable], 1, &b); err == nil || !strings.Contains(err.Error(), "record 12 tick overflows") {
		t.Fatalf("overflow seed: %v", err)
	}
}
