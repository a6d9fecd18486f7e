package wire

import (
	"bufio"
	"fmt"
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
	buf          []byte // the frame being built, reused (frameStart)
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
	if err := bw.writeFrame(AppendBatch(bw.frameStart(), &bw.batch)); err != nil {
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
	return bw.writeFrame(AppendControl(bw.frameStart(), c))
}

// frameStart begins a frame in the Writer's one buffer: room for the
// header, which writeFrame fills in once the caller has appended the
// payload after it.
func (bw *Writer) frameStart() []byte {
	return append(bw.buf[:0], make([]byte, FrameHeaderLen)...)
}

// writeFrame seals a frame frameStart began and writes it in one call. The
// buffer, as the payload grew it, is kept for the next frame, so frames
// allocate nothing once it has reached the largest batch's size.
func (bw *Writer) writeFrame(frame []byte) error {
	bw.buf = frame
	if n := len(frame) - FrameHeaderLen; n > MaxFramePayload {
		return fmt.Errorf("%w: batch encodes to %d bytes, frame cap %d", ErrCorrupt, n, MaxFramePayload)
	}
	sealFrame(frame)
	_, err := bw.w.Write(frame)
	return err
}

// Reader decodes a binary record stream: the header at construction, then
// one columnar batch per Next call, into caller-reused Batch storage. Not
// safe for concurrent use.
type Reader struct {
	br   *bufio.Reader
	dims int
	buf  []byte // frame payload scratch, reused
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
	return &Reader{br: br, dims: dims}, nil
}

// Dims returns the dimension count the stream header promised.
func (r *Reader) Dims() int { return r.dims }

// readFrame reads and checksums one complete frame, returning its payload
// (valid until the next call). A clean end of stream is io.EOF; a stream
// that dies mid-frame is ErrTorn; invalid bytes are ErrCorrupt. Because it
// reads through io.ReadFull, reassembly is correct over any byte-stream
// framing — a TCP peer delivering one byte at a time decodes identically
// to a file read whole.
func (r *Reader) readFrame() ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside a frame header", ErrTorn)
		}
		return nil, err
	}
	length := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if length == 0 || length > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d outside (0,%d]", ErrCorrupt, length, MaxFramePayload)
	}
	if cap(r.buf) < FrameHeaderLen+length {
		r.buf = make([]byte, FrameHeaderLen+length)
	}
	frame := r.buf[:FrameHeaderLen+length]
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r.br, frame[FrameHeaderLen:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrTorn, length)
		}
		return nil, err
	}
	payload, _, err := DecodeFrame(frame)
	return payload, err
}

// Next reads one frame and decodes its batch into b, returning the record
// count. A clean end of stream is io.EOF; a stream that dies mid-frame is
// ErrTorn; invalid bytes are ErrCorrupt. A control frame is ErrCorrupt
// here — consumers that speak the control protocol use NextAny.
func (r *Reader) Next(b *Batch) (int, error) {
	payload, err := r.readFrame()
	if err != nil {
		return 0, err
	}
	return DecodeBatch(payload, r.dims, b)
}

// NextAny reads one frame and decodes it as either a record batch (into b,
// ctrl false) or a control frame (into c, ctrl true, n zero). Clean EOF,
// torn tails, and corruption report exactly as Next.
func (r *Reader) NextAny(b *Batch) (n int, c Control, ctrl bool, err error) {
	payload, err := r.readFrame()
	if err != nil {
		return 0, Control{}, false, err
	}
	if IsControl(payload) {
		c, err = DecodeControl(payload)
		return 0, c, true, err
	}
	n, err = DecodeBatch(payload, r.dims, b)
	return n, Control{}, false, err
}

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
// streamd's reader goroutine writes, the /metrics endpoint reads; all
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
