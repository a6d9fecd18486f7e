package node

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// seenMsg is what drainStream keeps of one ingestMsg: a batch goes back to
// the free list at once, so only its ticks are copied out.
type seenMsg struct {
	isCtrl  bool
	advance int64
	ticks   []int64
}

// drainStream runs readStream over in with the node's free-list policy (a
// consumer that hands every batch straight back) and returns the messages
// in order plus how many batches the reader drew.
func drainStream(t *testing.T, in *bytes.Buffer, dims, pool int, stats *wire.IngestStats) (msgs []seenMsg, draws int, err error) {
	t.Helper()
	free := make(chan *wire.Batch, pool)
	getBatch := func() *wire.Batch {
		draws++
		var b *wire.Batch
		select {
		case b = <-free:
		default:
			b = &wire.Batch{}
		}
		b.Reset(dims)
		return b
	}
	ch := make(chan ingestMsg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range ch {
			seen := seenMsg{isCtrl: m.isCtrl, advance: m.advance}
			if m.batch != nil {
				seen.ticks = slices.Clone(m.batch.Ticks)
				select {
				case free <- m.batch:
				default:
				}
			}
			msgs = append(msgs, seen)
		}
	}()
	err = readStream(context.Background(), in, dims, getBatch, ch, stats, wire.SourceTCP)
	close(ch)
	<-done
	return msgs, draws, err
}

// A control frame must not cost a pooled batch: the router sends one
// barrier per unit, and a reader that drew a batch per frame dropped one
// (and regrew its columns on the next data frame) every time.
func TestReadStreamHoldsBatchAcrossControlFrames(t *testing.T) {
	const frames, pool = 1000, 16
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
	msgs, draws, err := drainStream(t, &in, 1, pool, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != frames {
		t.Fatalf("%d messages, want %d", len(msgs), frames)
	}
	for i, m := range msgs {
		if wantCtrl := i%2 == 1; m.isCtrl != wantCtrl {
			t.Fatalf("message %d: isCtrl = %v", i, m.isCtrl)
		}
		if m.isCtrl && m.advance != int64(i/2+1) {
			t.Fatalf("message %d: advance to %d, want %d", i, m.advance, i/2+1)
		}
		if !m.isCtrl && !slices.Equal(m.ticks, []int64{int64(i / 2)}) {
			t.Fatalf("message %d: batch ticks %v", i, m.ticks)
		}
	}
	if draws > frames/2+pool {
		t.Fatalf("%d batches drawn for %d data frames (pool %d)", draws, frames/2, pool)
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
	msgs, _, err := drainStream(t, in, 1, 4, &stats)
	if err == nil || !strings.Contains(err.Error(), "record 4") {
		t.Fatalf("err = %v, want the fourth record named", err)
	}
	var delivered int
	for _, m := range msgs {
		delivered += len(m.ticks)
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
