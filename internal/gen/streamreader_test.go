package gen

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/wire"
)

// trickle hands out its chunks one Read at a time, so a bufio.Reader over
// it runs dry at every chunk boundary — a paced producer.
type trickle struct{ chunks []string }

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; r.chunks[0] == "" {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// batchSizes reads sr to its end and returns each batch's record count.
func batchSizes(t *testing.T, sr *StreamReader) (sizes []int, err error) {
	t.Helper()
	var b wire.Batch
	for {
		n, _, isCtrl, err := sr.Next(&b)
		if err != nil {
			return sizes, err
		}
		if isCtrl || n != b.Len() || n == 0 {
			t.Fatalf("Next = %d records (batch holds %d), isCtrl %v", n, b.Len(), isCtrl)
		}
		sizes = append(sizes, n)
	}
}

// The text cut policy: a bulk input is consumed in batches of
// textBatchRecords, a paced one is handed over whenever the buffer runs dry.
func TestStreamReaderTextCutPolicy(t *testing.T) {
	line := "3,1,2,0.5\n"
	bulk := bufio.NewReaderSize(strings.NewReader(strings.Repeat(line, 2*textBatchRecords+10)), 1<<16)
	sr := NewStreamReader(bulk, 2)
	if sr.Format() != wire.FormatText {
		t.Fatalf("format %v, want text", sr.Format())
	}
	sizes, err := batchSizes(t, sr)
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if len(sizes) != 3 || sizes[0] != textBatchRecords || sizes[1] != textBatchRecords || sizes[2] != 10 {
		t.Fatalf("bulk batches %v, want [%d %d 10]", sizes, textBatchRecords, textBatchRecords)
	}

	// The first chunk is longer than the wire magic, so negotiation's peek
	// does not pull the second one in.
	paced := bufio.NewReader(&trickle{chunks: []string{strings.Repeat(line, 3), strings.Repeat(line, 2), line}})
	sizes, err = batchSizes(t, NewStreamReader(paced, 2))
	if err != io.EOF || len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("paced batches %v (err %v), want [3 2 1]", sizes, err)
	}
}

// A bad line ends the stream only after the records before it were
// returned; a stream shorter than the magic is text.
func TestStreamReaderTextErrors(t *testing.T) {
	sr := NewStreamReader(bufio.NewReader(strings.NewReader("1,0,1\n2,0,1\n3,x,1\n4,0,1\n")), 1)
	sizes, err := batchSizes(t, sr)
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batches before the bad line: %v, want [2]", sizes)
	}
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("err = %v, want the third record named", err)
	}
	var b wire.Batch
	if _, _, _, again := sr.Next(&b); again != err {
		t.Fatalf("the error does not stick: %v then %v", err, again)
	}

	sizes, err = batchSizes(t, NewStreamReader(bufio.NewReader(strings.NewReader("1,0,1")), 1))
	if err != io.EOF || len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("short stream: batches %v, err %v", sizes, err)
	}
}

// The binary arm: frames and control frames come back in stream order, and
// a header naming another dimension count is refused before any frame.
func TestStreamReaderBinary(t *testing.T) {
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, []int32{0, 1}, 0.5)
	w.Append(2, []int32{1, 0}, 1.5)
	w.WriteControl(wire.Control{Op: wire.ControlAdvance, Unit: 7})
	w.Append(9, []int32{1, 1}, 2.5)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	sr := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)), 2)
	if sr.Format() != wire.FormatBinary {
		t.Fatalf("format %v, want binary", sr.Format())
	}
	var b wire.Batch
	if n, _, isCtrl, err := sr.Next(&b); n != 2 || isCtrl || err != nil || b.Ticks[1] != 2 {
		t.Fatalf("first frame: n %d, isCtrl %v, err %v", n, isCtrl, err)
	}
	if n, ctrl, isCtrl, err := sr.Next(&b); n != 0 || !isCtrl || err != nil || ctrl.Unit != 7 {
		t.Fatalf("control frame: n %d, ctrl %+v, isCtrl %v, err %v", n, ctrl, isCtrl, err)
	}
	if n, _, isCtrl, err := sr.Next(&b); n != 1 || isCtrl || err != nil || b.Ticks[0] != 9 {
		t.Fatalf("last frame: n %d, isCtrl %v, err %v", n, isCtrl, err)
	}
	if _, _, _, err := sr.Next(&b); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}

	sr = NewStreamReader(bufio.NewReader(bytes.NewReader(stream)), 3)
	if _, _, _, err := sr.Next(&b); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("dimension mismatch: %v", err)
	}
	sr = NewStreamReader(bufio.NewReader(bytes.NewReader(stream[:wire.HeaderLen-2])), 2)
	if _, _, _, err := sr.Next(&b); err == nil || err == io.EOF {
		t.Fatalf("torn header: %v", err)
	}
}
