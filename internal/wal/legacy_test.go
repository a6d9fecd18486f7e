package wal

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// legacyFixtureBatches re-runs the generator testdata/rgcwal01 was written
// from (seed 31): ten frames of one to eight two-dimensional records, one
// frame per batch, ticks non-decreasing from -20, by a build whose
// AppendColumnar wrote RGCWAL01 row payloads, at SegmentBytes 400.
func legacyFixtureBatches() []*wire.Batch {
	rng := rand.New(rand.NewSource(31))
	var batches []*wire.Batch
	tick := int64(-20)
	for f := 0; f < 10; f++ {
		b := &wire.Batch{}
		b.Reset(2)
		for n := 1 + rng.Intn(8); n > 0; n-- {
			tick += int64(rng.Intn(3))
			b.Append(tick, []int32{int32(rng.Intn(80)) - 8, int32(rng.Intn(1 << 20))}, rng.NormFloat64()*100)
		}
		batches = append(batches, b)
	}
	return batches
}

// replayAll returns the log's batches (copied) from sequence from on.
func replayAll(t *testing.T, dir string, from int64) []*wire.Batch {
	t.Helper()
	var out []*wire.Batch
	if _, err := ReplayBatches(dir, from, func(seq int64, b *wire.Batch) error {
		cp := &wire.Batch{}
		cp.Reset(len(b.Cols))
		for i, tick := range b.Ticks {
			cp.Append(tick, []int32{b.Cols[0][i], b.Cols[1][i]}, b.Values[i])
		}
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatalf("ReplayBatches: %v", err)
	}
	return out
}

// copyLog copies a log directory's files into a fresh directory.
func copyLog(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRGCWAL01Fixture: a log an older build wrote, in row payloads, still
// replays — frame for frame through ReplayBatches, record for record
// through Replay — and Open goes on in a new RGCWAL02 segment after it,
// never appending to the old one.
func TestRGCWAL01Fixture(t *testing.T) {
	const fixture = "testdata/rgcwal01"
	want := legacyFixtureBatches()
	var total int64
	for _, b := range want {
		total += int64(b.Len())
	}
	if got := replayAll(t, fixture, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReplayBatches delivered %d batches, want the %d generated", len(got), len(want))
	}
	recs, end := collect(t, fixture, 0)
	if end != total || int64(len(recs)) != total {
		t.Fatalf("Replay delivered %d records, end %d; want %d", len(recs), end, total)
	}
	i := 0
	for _, b := range want {
		for j, tick := range b.Ticks {
			r := recs[i]
			if r.Tick != tick || r.Value != b.Values[j] || r.Members[0] != b.Cols[0][j] || r.Members[1] != b.Cols[1][j] {
				t.Fatalf("record %d = %+v, want tick %d value %v", i, r, tick, b.Values[j])
			}
			i++
		}
	}

	dir := copyLog(t, fixture)
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l.Seq() != total || len(l.Segments()) != 3 || l.Segments()[2].FirstSeq != total {
		t.Fatalf("Open: Seq %d, segments %v; want %d and a third segment at %d", l.Seq(), l.Segments(), total, total)
	}
	fresh := batchOf(rec(500, 1), rec(501, 2))
	if err := l.AppendColumnar(fresh); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range l.Segments()[:2] {
		old, _ := os.ReadFile(filepath.Join(fixture, s.Name))
		now, _ := os.ReadFile(filepath.Join(dir, s.Name))
		if !reflect.DeepEqual(old, now) {
			t.Fatalf("Open changed the old segment %s", s.Name)
		}
	}
	hdr, err := os.ReadFile(filepath.Join(dir, l.Segments()[2].Name))
	if err != nil || string(hdr[:8]) != segmentMagic {
		t.Fatalf("new segment opens %.8q (err %v), want %s", hdr, err, segmentMagic)
	}
	if got := replayAll(t, dir, 0); !reflect.DeepEqual(got, append(want, fresh)) {
		t.Fatalf("replay after Open delivered %d batches, want the %d old then the new one", len(got), len(want))
	}

	// An RGCWAL01 segment holding no record is re-stamped in place: the
	// log goes on in it, and no segment is added.
	dir = copyLog(t, fixture)
	empty := binary.LittleEndian.AppendUint64([]byte(legacyMagic), uint64(total))
	if err := os.WriteFile(filepath.Join(dir, segmentName(total)), empty, 0o666); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendColumnar(fresh); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); len(segs) != 3 || segs[2].FirstSeq != total {
		t.Fatalf("segments %v, want the re-stamped third at %d", segs, total)
	}
	if got := replayAll(t, dir, 0); !reflect.DeepEqual(got, append(want, fresh)) {
		t.Fatalf("replay after re-stamping delivered %d batches, want %d", len(got), len(want)+1)
	}
}
