package gen

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/wire"
)

// WriteCSV emits a dataset in the cmd/datagen format: a header line, then
// one row per m-layer tuple — dim0..dimN, tb, te, base, slope.
func WriteCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	dims := ds.Schema.NumDims()
	header := make([]string, 0, dims+4)
	for d := 0; d < dims; d++ {
		header = append(header, fmt.Sprintf("dim%d", d))
	}
	header = append(header, "tb", "te", "base", "slope")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, in := range ds.Inputs {
		for d, m := range in.Members {
			row[d] = strconv.FormatInt(int64(m), 10)
		}
		row[dims] = strconv.FormatInt(in.Measure.Tb, 10)
		row[dims+1] = strconv.FormatInt(in.Measure.Te, 10)
		row[dims+2] = strconv.FormatFloat(in.Measure.Base, 'g', -1, 64)
		row[dims+3] = strconv.FormatFloat(in.Measure.Slope, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV against the given schema.
// Every member is range-checked against the schema's m-layer
// cardinalities.
func ReadCSV(r io.Reader, schema *cube.Schema) ([]core.Input, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.NumDims() + 4
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("gen: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: empty csv", ErrSpec)
	}
	dims := schema.NumDims()
	inputs := make([]core.Input, 0, len(rows)-1)
	for i, row := range rows[1:] { // skip header
		members := make([]int32, dims)
		for d := 0; d < dims; d++ {
			v, err := strconv.ParseInt(row[d], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("gen: row %d dim %d: %w", i+1, d, err)
			}
			card := schema.Dims[d].Hierarchy.Cardinality(schema.Dims[d].MLevel)
			if v < 0 || int(v) >= card {
				return nil, fmt.Errorf("%w: row %d member %d outside [0,%d)", ErrSpec, i+1, v, card)
			}
			members[d] = int32(v)
		}
		tb, err := strconv.ParseInt(row[dims], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: row %d tb: %w", i+1, err)
		}
		te, err := strconv.ParseInt(row[dims+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: row %d te: %w", i+1, err)
		}
		if te < tb {
			return nil, fmt.Errorf("%w: row %d interval [%d,%d]", ErrSpec, i+1, tb, te)
		}
		base, err := strconv.ParseFloat(row[dims+2], 64)
		if err != nil {
			return nil, fmt.Errorf("gen: row %d base: %w", i+1, err)
		}
		slope, err := strconv.ParseFloat(row[dims+3], 64)
		if err != nil {
			return nil, fmt.Errorf("gen: row %d slope: %w", i+1, err)
		}
		isb := regression.ISB{Tb: tb, Te: te, Base: base, Slope: slope}
		if !isb.IsFinite() {
			return nil, fmt.Errorf("%w: row %d has non-finite measure", ErrSpec, i+1)
		}
		inputs = append(inputs, core.Input{Members: members, Measure: isb})
	}
	return inputs, nil
}

// AppendStreamRecord appends one text stream record —
// tick,dim0,...,dimN,value plus a newline — to dst and returns the
// extended slice. This is the single encoder for streamd's text input
// format; RecordReader is its inverse.
func AppendStreamRecord(dst []byte, tick int64, members []int32, value float64) []byte {
	dst = strconv.AppendInt(dst, tick, 10)
	for _, m := range members {
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(m), 10)
	}
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, value, 'g', -1, 64)
	return append(dst, '\n')
}

// RecordReader parses the text stream record format
// (tick,dim0,...,dimN,value, one record per line, blank lines skipped) for
// a fixed dimension count. It is the one decoder for the format — streamd
// and every test consume it — and it parses off the caller's bufio.Reader
// without pulling more input than the records it returns, so a consumer
// can batch by "what has already arrived" (Buffered) without adding
// latency to a paced stream. Not safe for concurrent use.
type RecordReader struct {
	br      *bufio.Reader
	dims    int
	members []int32
	line    []byte
}

// NewRecordReader returns a reader for records with dims dimension
// members.
func NewRecordReader(br *bufio.Reader, dims int) *RecordReader {
	return &RecordReader{br: br, dims: dims, members: make([]int32, dims)}
}

// Buffered reports how many input bytes are already in memory — when it
// is 0 the next Next will block on the underlying reader.
func (r *RecordReader) Buffered() int { return r.br.Buffered() }

// Next parses one record. The members slice aliases storage reused by the
// following Next — copy it to retain it. A clean end of input is io.EOF.
func (r *RecordReader) Next() (tick int64, members []int32, value float64, err error) {
	line, err := r.readLine()
	if err != nil {
		return 0, nil, 0, err
	}
	rest := line
	i := indexComma(rest)
	if i < 0 {
		return 0, nil, 0, fmt.Errorf("gen: record has too few fields, want %d", r.dims+2)
	}
	tick, err = parseIntField(rest[:i], "tick")
	if err != nil {
		return 0, nil, 0, err
	}
	rest = rest[i+1:]
	for d := 0; d < r.dims; d++ {
		i = indexComma(rest)
		if i < 0 {
			return 0, nil, 0, fmt.Errorf("gen: record has too few fields, want %d", r.dims+2)
		}
		v, err := parseIntField(rest[:i], "member")
		if err != nil {
			return 0, nil, 0, fmt.Errorf("gen: dim %d: %w", d, err)
		}
		if v < -1<<31 || v > 1<<31-1 {
			return 0, nil, 0, fmt.Errorf("gen: dim %d: member %d outside int32", d, v)
		}
		r.members[d] = int32(v)
		rest = rest[i+1:]
	}
	if indexComma(rest) >= 0 {
		return 0, nil, 0, fmt.Errorf("gen: record has more than %d fields", r.dims+2)
	}
	value, err = strconv.ParseFloat(string(rest), 64)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("gen: value: %w", err)
	}
	return tick, r.members, value, nil
}

// readLine returns the next non-blank line with its terminator stripped,
// reusing internal storage. A final line without a newline still counts.
func (r *RecordReader) readLine() ([]byte, error) {
	for {
		r.line = r.line[:0]
		for {
			frag, err := r.br.ReadSlice('\n')
			r.line = append(r.line, frag...)
			if err == bufio.ErrBufferFull {
				continue
			}
			if err != nil && (err != io.EOF || len(r.line) == 0) {
				return nil, err
			}
			break
		}
		line := r.line
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			return line, nil
		}
	}
}

// textBatchRecords is how many text records StreamReader gathers into one
// columnar batch. It also cuts a batch whenever the buffer runs dry, so a
// paced producer's records are never held back waiting for a full batch.
const textBatchRecords = 512

// StreamReader decodes a record stream in either ingest format — text
// lines (RecordReader) or the framed columnar encoding (internal/wire) —
// into columnar batches. It is the one place the format is negotiated: the
// wire magic's first byte can never open a text record, so peeking the
// magic length decides the decoder, and a stream shorter than the magic is
// text. Every stream source (streamd's stdin and TCP connections, the
// router's stdin) reads through it. Not safe for concurrent use.
type StreamReader struct {
	format  wire.Format
	dims    int
	bin     *wire.Reader  // FormatBinary
	text    *RecordReader // FormatText
	records int64         // text records returned so far, for error positions
	// err ends the stream: a binary header that is bad or names another
	// dimension count, or the text error (io.EOF included) met after the
	// records of the batch just returned.
	err error
}

// NewStreamReader negotiates the format of the stream in br, whose records
// must have dims dimension members. A binary stream's header is consumed
// here; what is wrong with it is reported by the first Next.
func NewStreamReader(br *bufio.Reader, dims int) *StreamReader {
	r := &StreamReader{dims: dims}
	if peek, _ := br.Peek(len(wire.Magic)); string(peek) != wire.Magic {
		r.text = NewRecordReader(br, dims)
		return r
	}
	r.format = wire.FormatBinary
	if r.bin, r.err = wire.NewReader(br); r.err == nil && r.bin.Dims() != dims {
		r.err = fmt.Errorf("gen: stream carries %d dimensions, want %d", r.bin.Dims(), dims)
	}
	return r
}

// Format reports which encoding the stream opened with.
func (r *StreamReader) Format() wire.Format { return r.format }

// Next decodes into b, whose storage it reuses, either the next batch (n
// records, n > 0) or — binary streams only — the next control frame (isCtrl,
// n zero). A binary batch is one frame; a text batch ends at
// textBatchRecords or when the buffer runs dry. A clean end of input is
// io.EOF. A bad text line is reported by the call after the one that
// returned the records before it, so those are delivered first.
func (r *StreamReader) Next(b *wire.Batch) (n int, ctrl wire.Control, isCtrl bool, err error) {
	if r.err != nil {
		return 0, wire.Control{}, false, r.err
	}
	if r.format == wire.FormatBinary {
		return r.bin.NextAny(b)
	}
	b.Reset(r.dims)
	for {
		tick, members, value, err := r.text.Next()
		if err != nil {
			if err != io.EOF {
				err = fmt.Errorf("record %d: %w", r.records+1, err)
			}
			r.err = err
			break
		}
		r.records++
		b.Append(tick, members, value)
		if b.Len() >= textBatchRecords || r.text.Buffered() == 0 {
			break
		}
	}
	if b.Len() == 0 {
		return 0, wire.Control{}, false, r.err
	}
	return b.Len(), wire.Control{}, false, nil
}

// Payload returns the wire payload the batch the last Next call returned
// was decoded from (wire.Reader.Payload), valid until the next call; nil
// for a text stream, whose batches have no payload to hand on.
func (r *StreamReader) Payload() []byte {
	if r.bin == nil {
		return nil
	}
	return r.bin.Payload()
}

func indexComma(b []byte) int {
	for i, c := range b {
		if c == ',' {
			return i
		}
	}
	return -1
}

// parseIntField is strconv.ParseInt(s, 10, 64) over bytes, avoiding the
// per-field string allocation on the ingest hot path.
func parseIntField(b []byte, what string) (int64, error) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	// 19 digits bound any int64; longer inputs could wrap uint64 silently.
	if len(s) == 0 || len(s) > 19 {
		return 0, fmt.Errorf("gen: %s: bad number %q", what, b)
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("gen: %s: bad number %q", what, b)
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, fmt.Errorf("gen: %s: number %q overflows", what, b)
		}
		return -int64(n), nil
	}
	if n >= 1<<63 {
		return 0, fmt.Errorf("gen: %s: number %q overflows", what, b)
	}
	return int64(n), nil
}
