package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// Writer encodes records into columnar batches and ships each batch as
// one frame. The stream header goes out at construction, a frame goes out
// whenever the pending batch reaches BatchRecords or Flush is called, and
// empty batches are never written. Not safe for concurrent use.
type Writer struct {
	w io.Writer
	// BatchRecords is the auto-flush threshold (DefaultBatchRecords when
	// left zero at construction).
	BatchRecords int
	dims         int
	batch        Batch
	buf          []byte // the frame being built, reused (StartFrame)
}

// NewWriter writes the stream header for dims dimensions and returns a
// Writer for it.
func NewWriter(w io.Writer, dims int) (*Writer, error) {
	if dims < 1 || dims > MaxDims {
		return nil, fmt.Errorf("%w: %d dimensions outside [1,%d]", ErrCorrupt, dims, MaxDims)
	}
	bw := &Writer{w: w, BatchRecords: DefaultBatchRecords, dims: dims}
	bw.batch.Reset(dims)
	if _, err := w.Write(EncodeHeader(bw.buf[:0], dims)); err != nil {
		return nil, err
	}
	return bw, nil
}

// Append buffers one record, flushing a full batch as a frame. members
// must have exactly dims entries.
func (bw *Writer) Append(tick int64, members []int32, value float64) error {
	if len(members) != bw.dims {
		return fmt.Errorf("%w: record has %d members, stream has %d dimensions", ErrCorrupt, len(members), bw.dims)
	}
	bw.batch.Append(tick, members, value)
	if bw.batch.Len() >= bw.BatchRecords || bw.batch.Len() >= MaxBatchRecords {
		return bw.Flush()
	}
	return nil
}

// Flush frames and writes the pending batch, if any.
func (bw *Writer) Flush() error {
	if bw.batch.Len() == 0 {
		return nil
	}
	if err := bw.writeFrame(AppendBatch(StartFrame(bw.buf[:0]), &bw.batch)); err != nil {
		return err
	}
	bw.batch.Reset(bw.dims)
	return nil
}

// WriteControl flushes the pending batch, then frames and writes one
// control payload. The flush keeps the stream's record/control order equal
// to the caller's Append/WriteControl order — a barrier must never pass
// records buffered before it.
func (bw *Writer) WriteControl(c Control) error {
	if err := bw.Flush(); err != nil {
		return err
	}
	return bw.writeFrame(AppendControl(StartFrame(bw.buf[:0]), c))
}

// writeFrame seals a frame StartFrame began in the Writer's one buffer and
// writes it in one call. The buffer, as the payload grew it, is kept for
// the next frame, so frames allocate nothing once it has reached the
// largest batch's size.
func (bw *Writer) writeFrame(frame []byte) error {
	bw.buf = frame
	if err := SealFrame(frame); err != nil {
		return err
	}
	_, err := bw.w.Write(frame)
	return err
}

// FrameReader reads frames off a byte stream one at a time into one
// reused payload buffer, so it holds one frame however long the stream
// is. It is the package's one frame decoder: Reader reads the binary wire
// through it, and the write-ahead log reads its segments through it. Not
// safe for concurrent use.
type FrameReader struct {
	br  *bufio.Reader
	hdr [FrameHeaderLen]byte // header scratch: a local would escape to the heap
	buf []byte               // payload scratch, reused
	off int64                // bytes of the frames returned so far
}

// NewFrameReader returns a FrameReader for the frames br holds from its
// current position on.
func NewFrameReader(br *bufio.Reader) *FrameReader { return &FrameReader{br: br} }

// Next reads and checksums one complete frame and returns its payload,
// valid until the next call. A clean end of stream is io.EOF; a stream
// that dies inside a frame header or payload is ErrTorn; a zero or
// oversized length (checked before anything is allocated) or a checksum
// mismatch is ErrCorrupt. Other errors are the underlying reader's.
// Because it reads through io.ReadFull, reassembly is correct over any
// byte-stream framing — a TCP peer delivering one byte at a time decodes
// identically to a file.
func (fr *FrameReader) Next() ([]byte, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside a frame header", ErrTorn)
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr)
	if length == 0 || length > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d outside (0,%d]", ErrCorrupt, length, MaxFramePayload)
	}
	if cap(fr.buf) < int(length) { // grown geometrically: a run of ever longer frames reallocates O(log n) times
		fr.buf = make([]byte, length, min(max(int(length), 2*cap(fr.buf)), MaxFramePayload))
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrTorn, length)
		}
		return nil, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, fmt.Errorf("%w: frame checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	fr.off += FrameHeaderLen + int64(length)
	return payload, nil
}

// Offset returns the bytes of the frames Next has returned: where the
// next frame starts and, once Next has failed, the length of the stream's
// valid prefix.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Reader decodes a binary record stream: the header at construction, then
// one columnar batch per Next call, into caller-reused Batch storage. Not
// safe for concurrent use.
type Reader struct {
	frames  FrameReader
	dims    int
	payload []byte // the last NextAny frame's (Payload)
}

// NewReader consumes and validates the stream header. r is wrapped in a
// bufio.Reader unless it already is one.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside the header", ErrTorn)
		}
		return nil, err
	}
	dims, err := DecodeHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{frames: FrameReader{br: br}, dims: dims}, nil
}

// Dims returns the dimension count the stream header promised.
func (r *Reader) Dims() int { return r.dims }

// Next reads one frame and decodes its batch into b, returning the record
// count. A clean end of stream is io.EOF; a stream that dies mid-frame is
// ErrTorn; invalid bytes are ErrCorrupt. A control frame is ErrCorrupt
// here — consumers that speak the control protocol use NextAny.
func (r *Reader) Next(b *Batch) (int, error) {
	payload, err := r.frames.Next()
	if err != nil {
		return 0, err
	}
	return DecodeBatch(payload, r.dims, b)
}

// NextAny reads one frame and decodes it as either a record batch (into b,
// ctrl false) or a control frame (into c, ctrl true, n zero). Clean EOF,
// torn tails, and corruption report exactly as Next.
func (r *Reader) NextAny(b *Batch) (n int, c Control, ctrl bool, err error) {
	payload, err := r.frames.Next()
	if err != nil {
		return 0, Control{}, false, err
	}
	r.payload = payload
	if IsControl(payload) {
		c, err = DecodeControl(payload)
		return 0, c, true, err
	}
	n, err = DecodeBatch(payload, r.dims, b)
	return n, Control{}, false, err
}

// Payload returns the checksummed payload of the frame the last NextAny
// call read, valid until the next call: for a batch it decoded, the bytes
// the batch was decoded from, which a write-ahead log can store as they
// came instead of re-encoding the batch.
func (r *Reader) Payload() []byte { return r.payload }

// Format labels the two ingest encodings for observability.
type Format int

const (
	// FormatText is the line-oriented tick,dims...,value encoding.
	FormatText Format = iota
	// FormatBinary is this package's framed columnar encoding.
	FormatBinary
	numFormats
)

// String returns the metric label value.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// Formats lists the label values in rendering order.
var Formats = [numFormats]Format{FormatText, FormatBinary}

// Source labels where an ingest byte stream arrived from, so a cluster
// node's metrics distinguish piped ingest from router traffic.
type Source int

const (
	// SourceStdin is the process's standard input (piped or redirected).
	SourceStdin Source = iota
	// SourceTCP is a routed connection accepted on -ingest-listen.
	SourceTCP
	numSources
)

// String returns the metric label value.
func (s Source) String() string {
	if s == SourceTCP {
		return "tcp"
	}
	return "stdin"
}

// Sources lists the label values in rendering order.
var Sources = [numSources]Source{SourceStdin, SourceTCP}

// IngestStats counts the ingest edge per (format, source) pair: records
// decoded, frames (batches) handed to the engine, and decode failures.
// streamd's ingest goroutine writes, the /metrics endpoint reads; all
// fields are atomic so neither side takes a lock.
type IngestStats struct {
	records      [numFormats][numSources]atomic.Int64
	frames       [numFormats][numSources]atomic.Int64
	decodeErrors [numFormats][numSources]atomic.Int64
}

// AddRecords counts n decoded records.
func (s *IngestStats) AddRecords(f Format, src Source, n int) { s.records[f][src].Add(int64(n)) }

// AddFrame counts one decoded frame (for text, one batch cut from the
// line stream).
func (s *IngestStats) AddFrame(f Format, src Source) { s.frames[f][src].Add(1) }

// AddDecodeError counts one decode failure.
func (s *IngestStats) AddDecodeError(f Format, src Source) { s.decodeErrors[f][src].Add(1) }

// Records returns the decoded-record count for a format and source.
func (s *IngestStats) Records(f Format, src Source) int64 { return s.records[f][src].Load() }

// Frames returns the decoded-frame count for a format and source.
func (s *IngestStats) Frames(f Format, src Source) int64 { return s.frames[f][src].Load() }

// DecodeErrors returns the decode-failure count for a format and source.
func (s *IngestStats) DecodeErrors(f Format, src Source) int64 { return s.decodeErrors[f][src].Load() }

// WriteMetrics renders the counters as the Prometheus text families
// regcube_ingest_{records,frames,decode_errors}_total, one series per
// format and source. It is safe to call while the counters move.
func (s *IngestStats) WriteMetrics(w io.Writer) {
	for _, f := range Formats {
		for _, src := range Sources {
			fmt.Fprintf(w, "regcube_ingest_records_total{format=%q,source=%q} %d\n", f, src, s.Records(f, src))
			fmt.Fprintf(w, "regcube_ingest_frames_total{format=%q,source=%q} %d\n", f, src, s.Frames(f, src))
			fmt.Fprintf(w, "regcube_ingest_decode_errors_total{format=%q,source=%q} %d\n", f, src, s.DecodeErrors(f, src))
		}
	}
}
