package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func sampleBatch(dims, n int) *Batch {
	var b Batch
	b.Reset(dims)
	members := make([]int32, dims)
	for i := 0; i < n; i++ {
		for d := range members {
			members[d] = int32((i*7 + d*3) % 16)
		}
		b.Append(int64(100+i/3), members, float64(i)*1.25-3)
	}
	return &b
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, frame")
	frame := EncodeFrame(nil, payload)
	if len(frame) != FrameHeaderLen+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(frame), FrameHeaderLen+len(payload))
	}
	fr := frameReader(frame)
	got, err := fr.Next()
	if err != nil || fr.Offset() != int64(len(frame)) || !bytes.Equal(got, payload) {
		t.Fatalf("FrameReader.Next = %q, %v at offset %d", got, err, fr.Offset())
	}
	if _, err := fr.Next(); err != io.EOF || fr.Offset() != int64(len(frame)) {
		t.Fatalf("after the one frame: %v at offset %d, want io.EOF at %d", err, fr.Offset(), len(frame))
	}
}

// A stream of strictly growing frames reallocates the reader's payload
// buffer O(log n) times, not once a frame.
func TestFrameReaderGrowsGeometrically(t *testing.T) {
	const n = 4096
	var stream []byte
	for length := 1; length <= n; length++ {
		stream = EncodeFrame(stream, bytes.Repeat([]byte{byte(length)}, length))
	}
	fr := frameReader(stream)
	grows, last := 0, 0
	for length := 1; length <= n; length++ {
		payload, err := fr.Next()
		if err != nil || len(payload) != length || payload[length-1] != byte(length) {
			t.Fatalf("frame %d: %d bytes, %v", length, len(payload), err)
		}
		if cap(payload) != last {
			grows, last = grows+1, cap(payload)
		}
	}
	if grows > 14 { // log2(4096) + 2
		t.Fatalf("%d frames of growing length reallocated the buffer %d times", n, grows)
	}
}

// frameReader reads the frames of b.
func frameReader(b []byte) *FrameReader {
	return NewFrameReader(bufio.NewReader(bytes.NewReader(b)))
}

func TestDecodeFrameEdges(t *testing.T) {
	valid := EncodeFrame(nil, []byte{1, 2, 3, 4})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	huge := EncodeFrame(nil, []byte{1})
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", valid[:5], ErrTorn},
		{"truncated payload", valid[:len(valid)-1], ErrTorn},
		{"zero fill", make([]byte, 32), ErrCorrupt},
		{"zero length", append([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 9), ErrCorrupt},
		{"oversized length", huge, ErrCorrupt},
		{"bad crc", flipped, ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := frameReader(tc.in)
			if _, err := fr.Next(); !errors.Is(err, tc.want) || fr.Offset() != 0 {
				t.Fatalf("FrameReader.Next over %x: %v at offset %d, want %v at 0", tc.in, err, fr.Offset(), tc.want)
			}
		})
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, dims := range []int{1, 2, 7, MaxDims} {
		hdr := EncodeHeader(nil, dims)
		if len(hdr) != HeaderLen {
			t.Fatalf("header is %d bytes, want %d", len(hdr), HeaderLen)
		}
		got, err := DecodeHeader(hdr)
		if err != nil || got != dims {
			t.Fatalf("DecodeHeader = %d, %v, want %d", got, err, dims)
		}
	}
}

func TestDecodeHeaderEdges(t *testing.T) {
	valid := EncodeHeader(nil, 3)
	mutate := func(i int, v byte) []byte {
		h := append([]byte(nil), valid...)
		h[i] = v
		return h
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"short", valid[:HeaderLen-1], ErrTorn},
		{"bad magic", mutate(0, 'X'), ErrCorrupt},
		{"text lookalike", []byte("12,3,4,5.5,extra pad"), ErrCorrupt},
		{"bad version", mutate(8, 9), ErrCorrupt},
		{"zero dims", mutate(9, 0), ErrCorrupt},
		{"too many dims", mutate(9, MaxDims+1), ErrCorrupt},
		{"dirty reserved", mutate(12, 1), ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeHeader(tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeHeader error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var b Batch
	b.Reset(3)
	// Negative ticks, out-of-order deltas, extreme members, and odd float
	// bit patterns must all survive exactly.
	b.Append(-40, []int32{0, -1, math.MaxInt32}, math.Inf(1))
	b.Append(1<<40, []int32{5, math.MinInt32, 2}, math.Copysign(0, -1))
	b.Append(7, []int32{1, 2, 3}, math.NaN())
	payload := AppendBatch(nil, &b)

	var got Batch
	n, err := DecodeBatch(payload, 3, &got)
	if err != nil || n != 3 {
		t.Fatalf("DecodeBatch = %d, %v", n, err)
	}
	for i := range b.Ticks {
		if got.Ticks[i] != b.Ticks[i] {
			t.Fatalf("tick %d = %d, want %d", i, got.Ticks[i], b.Ticks[i])
		}
		if math.Float64bits(got.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("value %d bits %x, want %x", i, math.Float64bits(got.Values[i]), math.Float64bits(b.Values[i]))
		}
		for d := range b.Cols {
			if got.Cols[d][i] != b.Cols[d][i] {
				t.Fatalf("dim %d record %d = %d, want %d", d, i, got.Cols[d][i], b.Cols[d][i])
			}
		}
	}
}

func TestDecodeBatchEdges(t *testing.T) {
	valid := AppendBatch(nil, sampleBatch(2, 5))
	mutate := func(i int, v byte) []byte {
		p := append([]byte(nil), valid...)
		p[i] = v
		return p
	}
	overflow := func() []byte {
		var b Batch
		b.Reset(1)
		b.Append(math.MaxInt64, []int32{0}, 1)
		b.Append(math.MaxInt64, []int32{0}, 1)
		p := AppendBatch(nil, &b)
		// Rewrite the second tick delta (varint 0 right after the first
		// 10-byte delta) to a large positive step that wraps int64.
		return append(p[:13], append([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, p[14:]...)...)
	}()
	for _, tc := range []struct {
		name     string
		in       []byte
		wantDims int
	}{
		{"tiny payload", valid[:2], 2},
		{"bad version", mutate(0, 2), 2},
		{"zero dims", mutate(1, 0), 2},
		{"dims over cap", mutate(1, MaxDims+1), 2},
		{"dims mismatch", valid, 3},
		{"inflated count", mutate(2, 0xff), 2},
		{"truncated ticks", valid[:4], 2},
		{"truncated values", valid[:len(valid)-3], 2},
		{"trailing garbage", append(append([]byte(nil), valid...), 0), 2},
		{"tick overflow", overflow, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Batch
			if _, err := DecodeBatch(tc.in, tc.wantDims, &b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBatch error %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 4 // force several frames
	const n = 11
	for i := 0; i < n; i++ {
		if err := w.Append(int64(i/2), []int32{int32(i % 3), int32(i % 5)}, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // empty flush writes nothing
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dims() != 2 {
		t.Fatalf("Dims = %d, want 2", r.Dims())
	}
	var got, frames int
	var b Batch
	for {
		cnt, err := r.Next(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		for i := 0; i < cnt; i++ {
			rec := got + i
			if b.Ticks[i] != int64(rec/2) || b.Cols[0][i] != int32(rec%3) ||
				b.Cols[1][i] != int32(rec%5) || b.Values[i] != float64(rec)*0.5 {
				t.Fatalf("record %d decoded as tick=%d cols=(%d,%d) value=%g",
					rec, b.Ticks[i], b.Cols[0][i], b.Cols[1][i], b.Values[i])
			}
		}
		got += cnt
	}
	if got != n {
		t.Fatalf("decoded %d records, want %d", got, n)
	}
	if frames != 3 { // 4+4+3
		t.Fatalf("decoded %d frames, want 3", frames)
	}
}

// TestWriterSteadyStateAllocs: once its one buffer has grown to the largest
// frame, a Writer frames and writes batches and control frames without
// allocating, and every frame it writes is EncodeFrame's bytes.
func TestWriterSteadyStateAllocs(t *testing.T) {
	var sink frameSink
	w, err := NewWriter(&sink, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 64
	members := []int32{1, 2, 3}
	unit := int64(0)
	round := func() {
		for i := 0; i < 100; i++ { // one full batch, then a flushed remainder
			if err := w.Append(unit*100+int64(i), members, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		unit++
		if err := w.WriteControl(Control{Op: ControlAdvance, Unit: unit}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%v allocations per round of two batches and a control frame, want 0", allocs)
	}
	if sink.frames != 52*3 || sink.bad != 0 { // the first round, AllocsPerRun's warm-up and 50
		t.Fatalf("%d frames written, %d of them not EncodeFrame's bytes", sink.frames, sink.bad)
	}
}

// frameSink checks that every write after the stream header is one whole
// frame, EncodeFrame of its payload. Its reader is built once, so the sink
// allocates nothing per frame.
type frameSink struct {
	header      bool
	frames, bad int
	want        []byte
	src         bytes.Reader
	br          *bufio.Reader
	fr          *FrameReader
}

func (s *frameSink) Write(p []byte) (int, error) {
	if !s.header {
		s.header = true
		s.br = bufio.NewReader(nil)
		s.fr = NewFrameReader(s.br)
		return len(p), nil
	}
	s.src.Reset(p)
	s.br.Reset(&s.src)
	start := s.fr.Offset()
	payload, err := s.fr.Next()
	s.frames++
	if s.want = EncodeFrame(s.want[:0], payload); err != nil || s.fr.Offset()-start != int64(len(p)) || !bytes.Equal(s.want, p) {
		s.bad++
	}
	return len(p), nil
}

func TestWriterRejectsBadShape(t *testing.T) {
	if _, err := NewWriter(io.Discard, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewWriter(0 dims) error %v", err)
	}
	if _, err := NewWriter(io.Discard, MaxDims+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewWriter(%d dims) error %v", MaxDims+1, err)
	}
	w, err := NewWriter(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []int32{1}, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Append with 1 member error %v", err)
	}
}

// TestReaderEdges covers the stream-level failure modes a consumer sees:
// text on a binary reader, truncation inside the header, inside a frame
// header, and inside a frame body (the rotation/crash-tail shapes), plus a
// zero-filled tail after a healthy frame.
func TestReaderEdges(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3, []int32{1, 2}, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	for _, tc := range []struct {
		name string
		in   []byte
		want error // constructing or reading the first batch
	}{
		{"text input", []byte("1,2,3,4.5\n1,2,3,4.5\n"), ErrCorrupt},
		{"torn header", stream[:HeaderLen-4], ErrTorn},
		{"torn frame header", stream[:HeaderLen+3], ErrTorn},
		{"torn frame body", stream[:len(stream)-5], ErrTorn},
		{"zero tail", append(append([]byte(nil), stream...), make([]byte, 24)...), ErrCorrupt},
		{"header only", stream[:HeaderLen], io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.in))
			if err == nil {
				var b Batch
				for {
					if _, err = r.Next(&b); err != nil {
						break
					}
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("reading %s: error %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

func TestFormatLabels(t *testing.T) {
	if FormatText.String() != "text" || FormatBinary.String() != "binary" {
		t.Fatalf("format labels %q/%q", FormatText, FormatBinary)
	}
	if SourceStdin.String() != "stdin" || SourceTCP.String() != "tcp" {
		t.Fatalf("source labels %q/%q", SourceStdin, SourceTCP)
	}
	var s IngestStats
	s.AddRecords(FormatBinary, SourceStdin, 5)
	s.AddFrame(FormatBinary, SourceStdin)
	s.AddDecodeError(FormatText, SourceTCP)
	if s.Records(FormatBinary, SourceStdin) != 5 || s.Frames(FormatBinary, SourceStdin) != 1 ||
		s.DecodeErrors(FormatText, SourceTCP) != 1 {
		t.Fatalf("stats = %d records, %d frames, %d errors",
			s.Records(FormatBinary, SourceStdin), s.Frames(FormatBinary, SourceStdin),
			s.DecodeErrors(FormatText, SourceTCP))
	}
	if s.Records(FormatText, SourceStdin) != 0 || s.DecodeErrors(FormatBinary, SourceTCP) != 0 {
		t.Fatal("counters bled across formats")
	}
	if s.Records(FormatBinary, SourceTCP) != 0 || s.Frames(FormatBinary, SourceTCP) != 0 {
		t.Fatal("counters bled across sources")
	}
}

// TestMagicNeverOpensTextRecord pins the in-band negotiation contract: the
// first magic byte must stay outside the characters a text record can
// start with.
func TestMagicNeverOpensTextRecord(t *testing.T) {
	if strings.ContainsAny(Magic[:1], "-0123456789") {
		t.Fatalf("magic %q could open a text record", Magic)
	}
}
