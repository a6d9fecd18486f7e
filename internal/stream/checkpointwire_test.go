package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/exception"
	"repro/internal/tilt"
)

// checkpointDoc encodes cp, failing the test on error.
func checkpointDoc(t testing.TB, cp *Checkpoint) []byte {
	t.Helper()
	doc, err := AppendCheckpoint(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// feedRecords ingests records without flushing (the cut stays mid-unit).
func feedRecords(t testing.TB, e *Engine, recs []testRecord) {
	t.Helper()
	for _, r := range recs {
		if _, err := e.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCodecFloatBits: sums travel as bits, so −0, subnormals and
// the extremes come back exactly.
func TestCheckpointCodecFloatBits(t *testing.T) {
	cp := codecCheckpoint(t)
	vals := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3}
	for i, v := range vals {
		cp.Cells[i%len(cp.Cells)].Acc.SumZ = v
		cp.Tilt[0].Frame.Levels[0].Slots[0].ISB.Slope = v
		back, err := DecodeCheckpoint(checkpointDoc(t, cp))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Cells[i%len(cp.Cells)].Acc.SumZ; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("sum %x came back %x", math.Float64bits(v), math.Float64bits(got))
		}
		if got := back.Tilt[0].Frame.Levels[0].Slots[0].ISB.Slope; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("slope %x came back %x", math.Float64bits(v), math.Float64bits(got))
		}
	}
}

// codecCheckpoint is a small tilted checkpoint cut mid-unit: cells, frames
// with two populated levels, a watermark.
func codecCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	cfg := Config{Schema: wideSchema(t), TicksPerUnit: 4, Threshold: exception.Global(1),
		TiltLevels: []tilt.Level{{Name: "q", Multiple: 1, Slots: 3}, {Name: "h", Multiple: 3, Slots: 2}}}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := genStream(5, 8, cfg.TicksPerUnit, -1)
	feedRecords(t, eng, recs[:len(recs)-2])
	eng.SetWALSeq(int64(len(recs) - 2))
	return checkpointOf(t, eng)
}

// TestCheckpointCodecRejects pins what the writer refuses — a nil
// checkpoint, a cell or frame of the wrong width, no dimensions — and what
// the reader does: every strict prefix, a trailing byte and a flipped bit
// anywhere are ErrRecord, none a panic.
func TestCheckpointCodecRejects(t *testing.T) {
	if _, err := AppendCheckpoint(nil, nil); !errors.Is(err, ErrRecord) {
		t.Fatalf("nil checkpoint: %v", err)
	}
	for what, spoil := range map[string]func(*Checkpoint){
		"no dimensions": func(cp *Checkpoint) { cp.Schema = nil },
		"short cell":    func(cp *Checkpoint) { cp.Cells[0].Members = cp.Cells[0].Members[:1] },
		"short frame":   func(cp *Checkpoint) { cp.Tilt[0].Levels = cp.Tilt[0].Levels[:1] },
		"level 300":     func(cp *Checkpoint) { cp.Tilt[0].Levels = []int{300, 1} },
	} {
		cp := codecCheckpoint(t)
		spoil(cp)
		if doc, err := AppendCheckpoint([]byte("kept"), cp); !errors.Is(err, ErrRecord) || string(doc) != "kept" {
			t.Errorf("%s: err = %v, dst came back as %q", what, err, doc)
		}
	}

	doc := checkpointDoc(t, codecCheckpoint(t))
	refused := func(data []byte) bool {
		_, err := DecodeCheckpoint(data)
		if err != nil && !errors.Is(err, ErrRecord) {
			t.Fatalf("%v is not ErrRecord", err)
		}
		return err != nil
	}
	for n := range doc {
		if !refused(doc[:n]) {
			t.Fatalf("%d-byte prefix of %d accepted", n, len(doc))
		}
	}
	if !refused(append(slices.Clone(doc), 0)) {
		t.Fatal("trailing byte accepted")
	}
	flipped := slices.Clone(doc)
	for off := range doc {
		flipped[off] ^= 0x04
		if !refused(flipped) {
			t.Fatalf("bit flipped at offset %d accepted", off)
		}
		flipped[off] = doc[off]
	}
	if !refused([]byte(`{"version":4}`)) {
		t.Fatal("JSON accepted as a checkpoint document")
	}
}

// FuzzDecodeCheckpoint holds the decoder to its contract on arbitrary
// bytes: never panic, fail only with ErrRecord, and hand back something the
// encoder turns into the very bytes that were decoded — the checksum leaves
// no second spelling of a document.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile("../persist/testdata/v5_single.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(checkpointDoc(f, codecCheckpoint(f)))
	f.Add(checkpointDoc(f, &Checkpoint{Schema: []DimensionShape{{Name: "A", MLevel: 2, OLevel: 1, Card: 4}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrRecord) {
				t.Fatalf("%v is not ErrRecord", err)
			}
			return
		}
		again, err := AppendCheckpoint(nil, cp)
		if err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode→encode is not the identity")
		}
	})
}

// durableCheckpoint is the checkpoint a durable_serve node cuts: 1 000
// open m-cells of a 256×256 m-layer (D2L2C16) under the calendar chain, 100
// units in — 4 quarters, 24 hours and a day in each of the o-cells' frames
// — and half a unit open.
func durableCheckpoint(tb testing.TB) *Checkpoint {
	tb.Helper()
	eng, err := NewEngine(Config{Schema: fanoutSchema(tb, 16, 2), TicksPerUnit: 10, Threshold: exception.Global(1), TiltLevels: tilt.CalendarLevels()})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(2011))
	cells := r.Perm(256 * 256)[:1000]
	for tick := int64(0); tick < 10*100+5; tick++ {
		for i, c := range cells {
			if _, err := eng.Ingest([]int32{int32(c % 256), int32(c / 256)}, tick, float64(i%7)+0.01*float64(tick%10)*float64(i%13)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng.SetWALSeq(1005 * 1000)
	return checkpointOf(tb, eng)
}

// BenchmarkCheckpointCodec times the codec on durableCheckpoint. Encode
// appends into a kept buffer, as the node does.
func BenchmarkCheckpointCodec(b *testing.B) {
	cp := durableCheckpoint(b)
	doc := checkpointDoc(b, cp)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		buf := make([]byte, 0, len(doc))
		for b.Loop() {
			var err error
			if buf, err = AppendCheckpoint(buf[:0], cp); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(doc)), "doc-bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for b.Loop() {
			if _, err := DecodeCheckpoint(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
