package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
)

// rec builds a test record with a recognizable shape: tick t, value v,
// members derived from the tick so every record is distinct.
func rec(t int64, v float64) Record {
	return Record{Tick: t, Value: v, Members: []int32{int32(t % 7), int32(t % 3)}}
}

// batchOf gathers recs into one wire batch.
func batchOf(recs ...Record) *wire.Batch {
	b := &wire.Batch{}
	b.Reset(len(recs[0].Members))
	for _, r := range recs {
		b.Append(r.Tick, r.Members, r.Value)
	}
	return b
}

// appendRecs appends recs as one frame.
func appendRecs(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	if err := l.AppendColumnar(batchOf(recs...)); err != nil {
		t.Fatalf("AppendColumnar: %v", err)
	}
}

// appendN appends n single-record frames starting at tick base.
func appendN(t *testing.T, l *Log, base int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		appendRecs(t, l, rec(base+int64(i), float64(i)))
	}
}

// collect replays dir from the watermark and returns the records.
func collect(t *testing.T, dir string, from int64) ([]Record, int64) {
	t.Helper()
	var out []Record
	end, err := Replay(dir, from, func(seq int64, r Record) error {
		if want := from + int64(len(out)); seq != want {
			t.Fatalf("replay seq %d, want %d", seq, want)
		}
		cp := r
		cp.Members = append([]int32(nil), r.Members...)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, end
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		batch := []Record{rec(int64(i*2), float64(i)), rec(int64(i*2+1), -float64(i))}
		want = append(want, batch...)
		appendRecs(t, l, batch...)
	}
	if got := l.Seq(); got != 20 {
		t.Fatalf("Seq = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, end := collect(t, dir, 0)
	if end != 20 || len(got) != 20 {
		t.Fatalf("replay got %d records, end %d; want 20, 20", len(got), end)
	}
	for i, r := range got {
		w := want[i]
		if r.Tick != w.Tick || r.Value != w.Value || len(r.Members) != len(w.Members) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
		for j := range r.Members {
			if r.Members[j] != w.Members[j] {
				t.Fatalf("record %d members = %v, want %v", i, r.Members, w.Members)
			}
		}
	}
	// Watermark skipping: replay from 15 delivers exactly the tail.
	tail, end := collect(t, dir, 15)
	if end != 20 || len(tail) != 5 {
		t.Fatalf("tail replay got %d records, end %d; want 5, 20", len(tail), end)
	}
	if tail[0].Tick != want[15].Tick {
		t.Fatalf("tail starts at tick %d, want %d", tail[0].Tick, want[15].Tick)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Seq() != 5 {
		t.Fatalf("reopened Seq = %d, want 5", l2.Seq())
	}
	appendN(t, l2, 5, 5)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, end := collect(t, dir, 0)
	if end != 10 || len(got) != 10 {
		t.Fatalf("replay got %d, end %d; want 10, 10", len(got), end)
	}
}

// smallSegmentLog opens a log whose segments rotate after roughly one
// single-record frame (header 16 + frame ≈ 25 bytes).
func smallSegmentLog(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestRotationAndMultiSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	l := smallSegmentLog(t, dir, 40) // rotate after every frame or two
	appendN(t, l, 0, 9)
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected 3+ segments, got %d: %v", len(segs), segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, end := collect(t, dir, 0)
	if end != 9 || len(got) != 9 {
		t.Fatalf("replay got %d, end %d; want 9, 9", len(got), end)
	}
	// Reopen appends into the rotation chain and replays whole.
	l2 := smallSegmentLog(t, dir, 40)
	if l2.Seq() != 9 {
		t.Fatalf("reopened Seq = %d, want 9", l2.Seq())
	}
	appendN(t, l2, 9, 3)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, end := collect(t, dir, 0); end != 12 || len(got) != 12 {
		t.Fatalf("post-reopen replay got %d, end %d; want 12, 12", len(got), end)
	}
	// Watermark past several sealed segments still lands correctly.
	if got, end := collect(t, dir, 7); end != 12 || len(got) != 5 {
		t.Fatalf("watermark replay got %d, end %d; want 5, 12", len(got), end)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	for _, cut := range []int{1, 3, 7} { // bytes to keep of the last frame
		t.Run(fmt.Sprintf("keep%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendN(t, l, 0, 4)
			seg := l.Segments()[0].Name
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			path := filepath.Join(dir, seg)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Tear the last frame: keep only `cut` bytes of it. All frames
			// are the same size, so locate the last frame's start by
			// scanning.
			frameLen := (len(b) - segmentHdrLen) / 4
			tearAt := len(b) - frameLen + cut
			if err := os.WriteFile(path, b[:tearAt], 0o666); err != nil {
				t.Fatal(err)
			}
			// Read-only replay stops cleanly at the valid prefix.
			if got, end := collect(t, dir, 0); end != 3 || len(got) != 3 {
				t.Fatalf("replay got %d, end %d; want 3, 3", len(got), end)
			}
			// Open truncates the torn tail and appends after record 3.
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if l2.Seq() != 3 {
				t.Fatalf("recovered Seq = %d, want 3", l2.Seq())
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(segmentHdrLen + 3*frameLen); fi.Size() != want {
				t.Fatalf("truncated size %d, want %d", fi.Size(), want)
			}
			appendN(t, l2, 3, 2)
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got, end := collect(t, dir, 0); end != 5 || len(got) != 5 {
				t.Fatalf("post-recovery replay got %d, end %d; want 5, 5", len(got), end)
			}
		})
	}
}

func TestRecoveryTruncatesCorruptAndZeroFilledTail(t *testing.T) {
	corrupt := func(b []byte, frameLen int) []byte {
		b[len(b)-1] ^= 0xff // flip a payload byte of the last frame
		return b
	}
	zeroFill := func(b []byte, frameLen int) []byte {
		// Replace the last frame with zeros and extend with a zero block —
		// the classic post-crash state on extent-allocating filesystems.
		for i := len(b) - frameLen; i < len(b); i++ {
			b[i] = 0
		}
		return append(b, make([]byte, 256)...)
	}
	for name, mutate := range map[string]func([]byte, int) []byte{"bitflip": corrupt, "zerofill": zeroFill} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendN(t, l, 0, 4)
			seg := l.Segments()[0].Name
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			path := filepath.Join(dir, seg)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frameLen := (len(b) - segmentHdrLen) / 4
			if err := os.WriteFile(path, mutate(b, frameLen), 0o666); err != nil {
				t.Fatal(err)
			}
			if got, end := collect(t, dir, 0); end != 3 || len(got) != 3 {
				t.Fatalf("replay got %d, end %d; want 3, 3", len(got), end)
			}
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if l2.Seq() != 3 {
				t.Fatalf("recovered Seq = %d, want 3", l2.Seq())
			}
			l2.Close()
		})
	}
}

func TestCorruptSealedSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l := smallSegmentLog(t, dir, 40)
	appendN(t, l, 0, 6)
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("need 2+ segments, got %d", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Damage a frame in the FIRST (sealed) segment: its records were
	// durably acknowledged, so replay must fail loudly, not truncate.
	path := filepath.Join(dir, segs[0].Name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(int64, Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
}

func TestRotationEdges(t *testing.T) {
	type setup func(t *testing.T, dir string) // mutate a healthy multi-segment log
	cases := []struct {
		name      string
		setup     setup
		wantOpen  bool  // Open succeeds
		wantSeq   int64 // Seq after Open (when wantOpen)
		wantCount int64 // records replayable after recovery
	}{
		{
			// Crash between segment creation and the first append: the
			// trailing segment holds a header and nothing else.
			name: "empty trailing segment",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 3)
				if err := l.rotate(); err != nil {
					t.Fatalf("rotate: %v", err)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			},
			wantOpen: true, wantSeq: 3, wantCount: 3,
		},
		{
			// Crash between creating the segment file and writing its
			// header: an untracked, headerless file recovery must delete.
			name: "torn header on untracked trailing segment",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 3)
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				// Simulate the torn creation by hand: file exists, header
				// only partially written, manifest never rewritten.
				name := segmentName(3)
				if err := os.WriteFile(filepath.Join(dir, name), []byte("RGC"), 0o666); err != nil {
					t.Fatal(err)
				}
			},
			wantOpen: true, wantSeq: 3, wantCount: 3,
		},
		{
			// Crash after the new segment's header landed but before the
			// manifest rewrite: the untracked segment is adopted.
			name: "untracked trailing segment adopted",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 3)
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				name := segmentName(3)
				var hdr [segmentHdrLen]byte
				copy(hdr[:], segmentMagic)
				binary.LittleEndian.PutUint64(hdr[8:], 3)
				frame := wire.EncodeFrame(nil, wire.AppendBatch(nil, batchOf(rec(100, 1))))
				if err := os.WriteFile(filepath.Join(dir, name), append(hdr[:], frame...), 0o666); err != nil {
					t.Fatal(err)
				}
			},
			wantOpen: true, wantSeq: 4, wantCount: 4,
		},
		{
			// A manifest-listed segment file is gone: unrecoverable
			// disagreement, never silently repaired.
			name: "manifest names missing segment",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 6)
				segs := l.Segments()
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := os.Remove(filepath.Join(dir, segs[0].Name)); err != nil {
					t.Fatal(err)
				}
			},
			wantOpen: false,
		},
		{
			// An untracked segment BEFORE the manifest tail means some
			// other writer owned the directory: refuse it.
			name: "untracked mid segment rejected",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 6)
				if len(l.Segments()) < 2 {
					t.Fatalf("need 2+ segments")
				}
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				// Drop a rogue, plausibly-named segment between the real
				// ones (sequence 1 is inside segment 0's span).
				var hdr [segmentHdrLen]byte
				copy(hdr[:], segmentMagic)
				binary.LittleEndian.PutUint64(hdr[8:], 1)
				if err := os.WriteFile(filepath.Join(dir, segmentName(1)), hdr[:], 0o666); err != nil {
					t.Fatal(err)
				}
			},
			wantOpen: false,
		},
		{
			// A segment header disagreeing with its manifest entry is
			// corruption, not a crash artifact.
			name: "segment header disagrees with manifest",
			setup: func(t *testing.T, dir string) {
				l := smallSegmentLog(t, dir, 40)
				appendN(t, l, 0, 6)
				segs := l.Segments()
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				path := filepath.Join(dir, segs[1].Name)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(b[8:], 9999)
				if err := os.WriteFile(path, b, 0o666); err != nil {
					t.Fatal(err)
				}
			},
			wantOpen: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			l, err := Open(Options{Dir: dir, SegmentBytes: 40})
			if !tc.wantOpen {
				if err == nil {
					l.Close()
					t.Fatalf("Open succeeded, want error")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open error = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if l.Seq() != tc.wantSeq {
				t.Fatalf("Seq = %d, want %d", l.Seq(), tc.wantSeq)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got, end := collect(t, dir, 0); end != tc.wantCount || int64(len(got)) != tc.wantCount {
				t.Fatalf("replay got %d, end %d; want %d", len(got), end, tc.wantCount)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy SyncPolicy
		every  time.Duration
		ok     bool
	}{
		{"", SyncBatch, 0, true},
		{"batch", SyncBatch, 0, true},
		{"off", SyncOff, 0, true},
		{"interval", SyncInterval, 0, true},
		{"interval=250ms", SyncInterval, 250 * time.Millisecond, true},
		{"interval=0s", 0, 0, false},
		{"interval=-1s", 0, 0, false},
		{"interval=junk", 0, 0, false},
		{"fsync", 0, 0, false},
	}
	for _, tc := range cases {
		p, every, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && (p != tc.policy || every != tc.every) {
			t.Fatalf("ParseSyncPolicy(%q) = %v/%v, want %v/%v", tc.in, p, every, tc.policy, tc.every)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	// Each policy must leave a replayable log after Close; the policies
	// differ only in fsync timing, which a unit test can't observe, so
	// this is a behavioral smoke over the three code paths.
	for _, p := range []SyncPolicy{SyncBatch, SyncInterval, SyncOff} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Sync: p, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatalf("Open(%v): %v", p, err)
		}
		appendN(t, l, 0, 5)
		if p == SyncInterval {
			time.Sleep(2 * time.Millisecond)
			appendN(t, l, 5, 1) // crosses the interval → sync path runs
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close(%v): %v", p, err)
		}
		want := int64(5)
		if p == SyncInterval {
			want = 6
		}
		if got, end := collect(t, dir, 0); end != want || int64(len(got)) != want {
			t.Fatalf("policy %v: replay got %d, end %d; want %d", p, len(got), end, want)
		}
	}
}

func TestReplayNegativeWatermark(t *testing.T) {
	if _, err := Replay(t.TempDir(), -1, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay(-1) error = %v, want ErrCorrupt", err)
	}
}

func TestFrameCodecErrors(t *testing.T) {
	valid := wire.EncodeFrame(nil, wire.AppendBatch(nil, batchOf(rec(1, 2))))
	if _, _, err := DecodeFrame(valid); err != nil {
		t.Fatalf("DecodeFrame(valid): %v", err)
	}
	if _, _, err := DecodeFrame(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("DecodeFrame(empty) = %v, want io.EOF", err)
	}
	if _, _, err := DecodeFrame(valid[:5]); !errors.Is(err, ErrTorn) {
		t.Fatalf("short header error = %v, want ErrTorn", err)
	}
	if _, _, err := DecodeFrame(valid[:len(valid)-1]); !errors.Is(err, ErrTorn) {
		t.Fatalf("short payload error = %v, want ErrTorn", err)
	}
	zero := make([]byte, 16)
	if _, _, err := DecodeFrame(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-length frame error = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	if _, _, err := DecodeFrame(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checksum error = %v, want ErrCorrupt", err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, wire.MaxFramePayload+1)
	huge = append(huge, 0, 0, 0, 0)
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length error = %v, want ErrCorrupt", err)
	}
}

// A frame the log writes is the frame the binary ingest wire ships for the
// same batch: the log has no payload codec of its own.
func TestAppendColumnarWritesTheWireFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := batchOf(rec(3, 1.5), rec(-9, -0.25), rec(1<<40, 1e300))
	if err := l.AppendColumnar(b); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, l.Segments()[0].Name)
	appended := l.Appended()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "RGCWAL02" {
		t.Fatalf("segment magic %q, want RGCWAL02", got[:8])
	}
	want := wire.EncodeFrame(nil, wire.AppendBatch(nil, b))
	if !bytes.Equal(got[segmentHdrLen:], want) {
		t.Fatalf("logged frame %x, wire frame %x", got[segmentHdrLen:], want)
	}
	if appended != int64(len(want)) {
		t.Fatalf("Appended = %d after one %d-byte frame", appended, len(want))
	}
}

// Appended counts the frames this Log wrote, across rotations and not the
// segment headers, and starts again at zero on reopen.
func TestAppendedCountsFrameBytes(t *testing.T) {
	dir := t.TempDir()
	l := smallSegmentLog(t, dir, 40)
	var want int64
	for i := int64(0); i < 6; i++ {
		want += int64(len(wire.EncodeFrame(nil, wire.AppendBatch(nil, batchOf(rec(i, float64(i)))))))
		appendRecs(t, l, rec(i, float64(i)))
		if l.Appended() != want {
			t.Fatalf("after %d frames Appended = %d, want %d", i+1, l.Appended(), want)
		}
	}
	if len(l.Segments()) < 3 {
		t.Fatalf("%d segments: the log did not rotate", len(l.Segments()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := smallSegmentLog(t, dir, 40)
	defer l2.Close()
	if l2.Appended() != 0 {
		t.Fatalf("reopened log reports %d bytes appended", l2.Appended())
	}
}

// Every frame the log writes, it can read: a batch wire.DecodeBatch would
// refuse is refused before a byte is written — no rotation, no Seq advance.
func TestAppendColumnarRefusesUndecodableBatches(t *testing.T) {
	tooMany := &wire.Batch{}
	tooMany.Reset(1)
	for i := 0; i <= wire.MaxBatchRecords; i++ {
		tooMany.Append(int64(i), []int32{0}, 0)
	}
	noDims := &wire.Batch{Ticks: []int64{1}, Values: []float64{1}}
	overflow := batchOf(rec(math.MinInt64, 1), rec(1, 2))
	for name, b := range map[string]*wire.Batch{"dims": noDims, "records": tooMany, "tick delta": overflow} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := smallSegmentLog(t, dir, 40)
			defer l.Close()
			appendN(t, l, 0, 2) // the open segment is due to rotate
			segs := l.Segments()
			path := filepath.Join(dir, segs[len(segs)-1].Name)
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			appended := l.Appended()
			if err := l.AppendColumnar(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("AppendColumnar error = %v, want ErrCorrupt", err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if l.Seq() != 2 || len(l.Segments()) != len(segs) || after.Size() != before.Size() || l.Appended() != appended {
				t.Fatalf("refused batch moved the log: Seq %d, %d segments, size %d; want 2, %d, %d",
					l.Seq(), len(l.Segments()), after.Size(), len(segs), before.Size())
			}
		})
	}
}
