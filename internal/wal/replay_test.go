package wal

import (
	"runtime"
	"testing"

	"repro/internal/wire"
)

// flatBatch is one 2 048-record batch in two dimensions.
func flatBatch() *wire.Batch {
	b := &wire.Batch{}
	b.Reset(2)
	for i := int64(0); i < 2048; i++ {
		b.Append(i, []int32{int32(i % 7), int32(i % 3)}, float64(i)/8)
	}
	return b
}

// writeSegment logs b frames times into one segment of a new log in dir
// and returns the frame's length on disk.
func writeSegment(tb testing.TB, dir string, b *wire.Batch, frames int) int64 {
	tb.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 40, Sync: SyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := l.AppendColumnar(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	if n := len(l.Segments()); n != 1 {
		tb.Fatalf("%d segments, want 1", n)
	}
	return l.Appended() / int64(frames)
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(t *testing.T, fn func() error) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// Recovery and replay stream a segment: what Open+Close and ReplayBatches
// allocate over one segment is a read buffer, one frame and one decoded
// batch — within a fixed multiple of one frame, whether the segment holds
// 100 frames or 5 000.
func TestReplayMemoryFlat(t *testing.T) {
	const frameMultiple = 8
	b := flatBatch()
	for _, frames := range []int{100, 5000} {
		dir := t.TempDir()
		frame := writeSegment(t, dir, b, frames)
		open := allocated(t, func() error {
			l, err := Open(Options{Dir: dir})
			if err != nil {
				return err
			}
			if l.Seq() != int64(frames*b.Len()) {
				t.Fatalf("Open recovered %d records, want %d", l.Seq(), frames*b.Len())
			}
			return l.Close()
		})
		replay := allocated(t, func() error {
			end, err := ReplayBatches(dir, 0, func(int64, *wire.Batch) error { return nil })
			if err == nil && end != int64(frames*b.Len()) {
				t.Fatalf("ReplayBatches delivered %d records, want %d", end, frames*b.Len())
			}
			return err
		})
		t.Logf("%d frames of %d bytes: Open+Close allocated %d bytes, ReplayBatches %d", frames, frame, open, replay)
		if limit := frameMultiple * frame; open > limit || replay > limit {
			t.Fatalf("%d frames of %d bytes: Open+Close allocated %d bytes, ReplayBatches %d; want at most %d",
				frames, frame, open, replay, limit)
		}
	}
}

// BenchmarkReplayBatches replays a one-segment log of 64 frames of 2 048
// records: the read side of a restart, per record (ns/rec) and per replay
// (B/op).
func BenchmarkReplayBatches(b *testing.B) {
	const frames = 64
	dir := b.TempDir()
	batch := flatBatch()
	writeSegment(b, dir, batch, frames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayBatches(dir, 0, func(int64, *wire.Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames*batch.Len()), "ns/rec")
}
