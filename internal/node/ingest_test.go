package node

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// seenFrame is what collectStream keeps of one frame: the batch and the
// payload are reused for the next one, so they are copied out.
type seenFrame struct {
	isCtrl  bool
	advance int64
	ticks   []int64
	payload []byte
}

// collectStream runs readStream over in and returns the frames in order
// plus how many distinct batches they arrived in.
func collectStream(t *testing.T, in *bytes.Buffer, dims int, stats *wire.IngestStats) (frames []seenFrame, batches int, err error) {
	t.Helper()
	seen := map[*wire.Batch]bool{}
	err = readStream(context.Background(), in, dims, stats, wire.SourceTCP, func(b *wire.Batch, payload []byte, advance int64) error {
		if b == nil {
			frames = append(frames, seenFrame{isCtrl: true, advance: advance})
			return nil
		}
		seen[b] = true
		frames = append(frames, seenFrame{ticks: slices.Clone(b.Ticks), payload: slices.Clone(payload)})
		return nil
	})
	return frames, len(seen), err
}

// A control frame must not cost a batch: the router sends one barrier per
// unit, and a reader that drew a batch per frame dropped one (and regrew
// its columns on the next data frame) every time. One batch carries the
// whole stream.
func TestReadStreamHoldsBatchAcrossControlFrames(t *testing.T) {
	const frames = 1000
	var in bytes.Buffer
	w, err := wire.NewWriter(&in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames/2; i++ {
		if err := w.Append(int64(i), []int32{int32(i % 4)}, float64(i)); err != nil {
			t.Fatal(err)
		}
		// WriteControl flushes the record first: data frame, control frame.
		if err := w.WriteControl(wire.Control{Op: wire.ControlAdvance, Unit: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var stats wire.IngestStats
	seen, batches, err := collectStream(t, &in, 1, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != frames {
		t.Fatalf("%d frames, want %d", len(seen), frames)
	}
	for i, m := range seen {
		if wantCtrl := i%2 == 1; m.isCtrl != wantCtrl {
			t.Fatalf("frame %d: isCtrl = %v", i, m.isCtrl)
		}
		if m.isCtrl && m.advance != int64(i/2+1) {
			t.Fatalf("frame %d: advance to %d, want %d", i, m.advance, i/2+1)
		}
		if !m.isCtrl && !slices.Equal(m.ticks, []int64{int64(i / 2)}) {
			t.Fatalf("frame %d: batch ticks %v", i, m.ticks)
		}
		// A binary batch comes with the payload it was decoded from.
		var b wire.Batch
		if _, err := wire.DecodeBatch(m.payload, 1, &b); !m.isCtrl && (err != nil || !slices.Equal(b.Ticks, m.ticks)) {
			t.Fatalf("frame %d: payload decodes to %v, %v", i, b.Ticks, err)
		}
	}
	if batches != 1 {
		t.Fatalf("%d batches for %d data frames, want one for the whole stream", batches, frames/2)
	}
	if got := stats.Frames(wire.FormatBinary, wire.SourceTCP); got != frames {
		t.Fatalf("%d frames counted, want %d", got, frames)
	}
	if got := stats.Records(wire.FormatBinary, wire.SourceTCP); got != frames/2 {
		t.Fatalf("%d records counted, want %d", got, frames/2)
	}
}

// Records decoded before a bad text line are delivered, then the error
// fails the stream and is counted once, under the text format.
func TestReadStreamTextErrorAfterRecords(t *testing.T) {
	in := bytes.NewBufferString(strings.Repeat("1,2,0.5\n", 3) + "1,x,0.5\n" + "2,2,1\n")
	var stats wire.IngestStats
	seen, _, err := collectStream(t, in, 1, &stats)
	if err == nil || !strings.Contains(err.Error(), "record 4") {
		t.Fatalf("err = %v, want the fourth record named", err)
	}
	var delivered int
	for _, m := range seen {
		delivered += len(m.ticks)
		if m.payload != nil {
			t.Fatal("a text batch came with a payload")
		}
	}
	if delivered != 3 {
		t.Fatalf("%d records delivered before the error, want 3", delivered)
	}
	if got := stats.DecodeErrors(wire.FormatText, wire.SourceTCP); got != 1 {
		t.Fatalf("%d text decode errors, want 1", got)
	}
	if got := stats.Records(wire.FormatText, wire.SourceTCP); got != 3 {
		t.Fatalf("%d text records counted, want 3", got)
	}
}

// frameFeed is a binary record stream handed out one chunk (the stream
// header, then one frame) per Read. The node's reader asks for frame k only
// once frame k-1 is read, logged and ingested, so the allocation counters
// read at the Reads for frames from and to bracket the whole per-frame
// path of frames [from, to).
type frameFeed struct {
	chunks   [][]byte
	next     int
	from, to int
	at       [2]runtime.MemStats
}

func (f *frameFeed) Read(p []byte) (int, error) {
	if f.next == len(f.chunks) {
		return 0, io.EOF
	}
	switch f.next {
	case 1 + f.from:
		runtime.ReadMemStats(&f.at[0])
	case 1 + f.to:
		runtime.ReadMemStats(&f.at[1])
	}
	n := copy(p, f.chunks[f.next])
	if f.chunks[f.next] = f.chunks[f.next][n:]; len(f.chunks[f.next]) == 0 {
		f.next++
	}
	return n, nil
}

// TestFramePathAllocatesNothing: once warm, a binary frame read, logged
// (-wal-sync off) and ingested by the node's one ingest loop allocates
// nothing — no byte, no object — when no unit boundary falls inside the
// measured frames. The counters are the process's, and the runtime may
// start a thread inside the window now and then, so a shard count passes
// when one of three runs reads zero; an allocation on the frame path shows
// in every run.
func TestFramePathAllocatesNothing(t *testing.T) {
	const warm, measured = 100, 256
	var chunk bytes.Buffer
	w, err := wire.NewWriter(&chunk, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{slices.Clone(chunk.Bytes())}
	for tick := int64(0); tick <= warm+measured; tick++ {
		chunk.Reset()
		for cell := int32(0); cell < 256; cell++ {
			if err := w.Append(tick, []int32{cell % 16, cell / 16}, float64(tick)*float64(cell%7-3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, slices.Clone(chunk.Bytes()))
	}
	for _, shards := range []int{1, 4} {
		var mallocs, bytes uint64
		for range 3 {
			feed := &frameFeed{chunks: slices.Clone(chunks), from: warm, to: warm + measured}
			err := Run(context.Background(), Config{
				Engine:  EngineConfig{Spec: "D2L2C4", TicksPerUnit: 1024, Threshold: 0.5, Shards: shards},
				WALDir:  t.TempDir(),
				WALSync: "off",
			}, feed, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			mallocs = feed.at[1].Mallocs - feed.at[0].Mallocs
			bytes = feed.at[1].TotalAlloc - feed.at[0].TotalAlloc
			if mallocs == 0 && bytes == 0 {
				break
			}
		}
		t.Logf("shards=%d: %d objects, %d bytes over %d warm frames", shards, mallocs, bytes, measured)
		if mallocs != 0 || bytes != 0 {
			t.Errorf("shards=%d: %d objects, %d bytes over %d warm frames, want none", shards, mallocs, bytes, measured)
		}
	}
}
