package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/tilt"
)

// feedUnits drives an engine through `units` full units of deterministic
// records (every m-cell, rising values so exceptions and alerts fire).
func feedUnits(t testing.TB, ingest func(members []int32, tick int64, value float64), cfg Config, units int) {
	t.Helper()
	for u := 0; u < units; u++ {
		for k := 0; k < cfg.TicksPerUnit; k++ {
			tick := int64(u*cfg.TicksPerUnit + k)
			for a := int32(0); a < 4; a++ {
				for b := int32(0); b < 4; b++ {
					v := float64(tick)*float64(a+1)*0.5 + float64(b)
					ingest([]int32{a, b}, tick, v)
				}
			}
		}
	}
}

// codecSnapshots builds one published snapshot per shape the codec has a
// branch for: the default one-level chain with alerts and drill-downs, a
// two-level chain, slope-change alerts (which carry no drill), and a unit
// that closed empty after units with data.
func codecSnapshots(t testing.TB) map[string]*Snapshot {
	t.Helper()
	out := make(map[string]*Snapshot)
	for name, shape := range map[string]func(*Config){
		"flat": func(*Config) {},
		"tilted": func(c *Config) {
			c.TiltLevels = []tilt.Level{{Name: "fine", Multiple: 1, Slots: 4}, {Name: "coarse", Multiple: 2, Slots: 3}}
		},
		// A zero minimum change alerts every o-cell that has a previous unit.
		"slope-change": func(c *Config) { c.Delta = &exception.Delta{} },
	} {
		cfg := snapshotTestConfig(t)
		shape(&cfg)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedUnits(t, func(m []int32, tick int64, v float64) {
			if _, err := eng.Ingest(m, tick, v); err != nil {
				t.Fatal(err)
			}
		}, cfg, 5)
		out[name] = eng.Snapshot()
		if name == "flat" {
			// Units 4 and 5 close at the barrier, the second with no data.
			if _, err := eng.AdvanceTo(6); err != nil {
				t.Fatal(err)
			}
			out["empty-unit"] = eng.Snapshot()
		}
	}
	supporters, changes := 0, 0
	for _, a := range out["flat"].Alerts {
		for range out["flat"].Result.Supporters(a.Cell) {
			supporters++
		}
	}
	for _, a := range out["slope-change"].Alerts {
		if a.Kind == SlopeChange {
			changes++
		}
	}
	if supporters == 0 || changes == 0 || out["tilted"].Frames == nil || out["empty-unit"].Result != nil {
		t.Fatalf("fixture lost a shape: %d supporters, snapshots %+v", supporters, out)
	}
	return out
}

// TestSnapshotCodecShapes round-trips every snapshot shape to a deeply
// equal value — nil-ness of Result and Frames included — and
// pins "equal state, equal bytes" both ways.
func TestSnapshotCodecShapes(t *testing.T) {
	schema := snapshotTestSchema(t)
	for name, snap := range codecSnapshots(t) {
		data, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := DecodeSnapshot(schema, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The decoded result keeps the document's lists where the engine's
		// keeps its cubing tables: compare what they hold.
		if (dec.Result == nil) != (snap.Result == nil) {
			t.Fatalf("%s: result nil-ness differs", name)
		}
		if snap.Result != nil {
			requireSameCells(t, name, snap.Result, dec.Result)
			if dec.Result.Stats != snap.Result.Stats {
				t.Errorf("%s: stats %+v, want %+v", name, dec.Result.Stats, snap.Result.Stats)
			}
		}
		bare, decBare := *snap, *dec
		bare.Result, decBare.Result = nil, nil
		if !reflect.DeepEqual(decBare, bare) {
			t.Errorf("%s: decoded snapshot differs:\n got %+v\nwant %+v", name, decBare, bare)
		}
		again, err := EncodeSnapshot(dec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: decode→encode is not the identity", name)
		}
		// The coordinator checks every frame of every document it decodes.
		if n := testing.AllocsPerRun(10, func() {
			for i := range dec.Frames {
				_ = checkFrame(schema, &dec.Frames[i], dec.Unit+1, dec.Interval.Te+1, dec.Interval.Len())
			}
		}); n != 0 {
			t.Errorf("%s: checking the frames allocates %v times", name, n)
		}
	}
	// Adding a core.Stats field must add it to the document too.
	if n := reflect.TypeOf(core.Stats{}).NumField(); n != 12 {
		t.Fatalf("core.Stats has %d fields, the snapshot codec writes 12", n)
	}
}

// TestSnapshotCodecFloatBits pins that measures travel as bits: the JSON
// codec refused ±Inf and NaN outright (a 500 from the node, and a
// coordinator that never refreshed again) and folded −0 into 0.
func TestSnapshotCodecFloatBits(t *testing.T) {
	schema := snapshotTestSchema(t)
	snap := codecSnapshots(t)["flat"]
	patterns := []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, // quiet NaN with a payload
		0xfff4000000000bad, // signalling NaN, sign set
		1,                  // smallest subnormal
	}
	oCells := slices.Clone(snap.Result.OCells())
	for i := range oCells {
		oCells[i].ISB.Base = math.Float64frombits(patterns[i%len(patterns)])
		oCells[i].ISB.Slope = math.Float64frombits(patterns[(i+1)%len(patterns)])
	}
	res, err := core.NewResult(schema, oCells, snap.Result.ExceptionCells(), snap.Result.Stats)
	if err != nil {
		t.Fatal(err)
	}
	hostile := *snap
	hostile.Result = res
	data, err := EncodeSnapshot(&hostile)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range oCells {
		got, _ := dec.Result.OCell(want.Key)
		if math.Float64bits(got.Base) != math.Float64bits(want.ISB.Base) || math.Float64bits(got.Slope) != math.Float64bits(want.ISB.Slope) {
			t.Fatalf("cell %v: bits %#x/%#x, want %#x/%#x", want.Key, math.Float64bits(got.Base), math.Float64bits(got.Slope),
				math.Float64bits(want.ISB.Base), math.Float64bits(want.ISB.Slope))
		}
	}
}

// allocBounded runs a batch of hostile decodes and fails the test if
// together they allocated out of proportion to their input — the
// signature of trusting a count: one believed 0xFFFFFFFF is gigabytes.
func allocBounded(t *testing.T, what string, decodes, docBytes int, batch func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(decodes)*uint64(64*docBytes+1<<16) {
		t.Fatalf("%s: %d decodes of %d bytes allocated %d", what, decodes, docBytes, grew)
	}
}

// refused decodes a hostile document and reports whether it was refused,
// failing the test on any error but ErrRecord.
func refused(t *testing.T, schema *cube.Schema, data []byte, what string) bool {
	t.Helper()
	_, err := DecodeSnapshot(schema, data)
	if err != nil && !errors.Is(err, ErrRecord) {
		t.Fatalf("%s: %v is not ErrRecord", what, err)
	}
	return err != nil
}

// TestSnapshotCodecRejects pins the decode failure modes: every strict
// prefix, trailing bytes, a foreign or future header, a dimension count or
// cell the schema does not have, and any count the remaining bytes cannot
// back — each ErrRecord, none a panic or an allocation sized by the lie.
func TestSnapshotCodecRejects(t *testing.T) {
	schema := snapshotTestSchema(t)
	if _, err := EncodeSnapshot(nil); !errors.Is(err, ErrRecord) {
		t.Fatalf("nil snapshot: %v", err)
	}
	for name, snap := range codecSnapshots(t) {
		data, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		allocBounded(t, name+" prefixes", len(data), len(data), func() {
			for n := range data {
				if !refused(t, schema, data[:n], name+" prefix") {
					t.Fatalf("%s: %d-byte prefix of %d accepted", name, n, len(data))
				}
			}
		})
		if !refused(t, schema, append(slices.Clone(data), 0), name+" trailing byte") {
			t.Fatalf("%s: trailing byte accepted", name)
		}
		// A count of 0xFFFFFFFF at every offset: wherever a count field
		// lies the document must be refused; elsewhere the bytes are a
		// measure or a member and may decode.
		corrupt := make([]byte, len(data))
		rejects := 0
		allocBounded(t, name+" counts", len(data), len(data), func() {
			for off := len(snapMagic) + 3; off+4 <= len(data); off++ {
				copy(corrupt, data)
				binary.LittleEndian.PutUint32(corrupt[off:], math.MaxUint32)
				if refused(t, schema, corrupt, fmt.Sprintf("%s count at %d", name, off)) {
					rejects++
				}
			}
		})
		if rejects == 0 {
			t.Fatalf("%s: no corrupted count was refused", name)
		}
		// The first count (o-layer cells, or alerts of an empty unit)
		// directly follows the header.
		copy(corrupt, data)
		binary.LittleEndian.PutUint32(corrupt[snapHeaderLen(snap):], math.MaxUint32)
		if !refused(t, schema, corrupt, name+" first count") {
			t.Fatalf("%s: first count of 0xFFFFFFFF accepted", name)
		}
	}

	snaps := codecSnapshots(t)
	flat := snaps["flat"]
	good, err := EncodeSnapshot(flat)
	if err != nil {
		t.Fatal(err)
	}
	head := snapHeaderLen(flat)
	mutate := func(off int, b byte) []byte {
		out := slices.Clone(good)
		out[off] = b
		return out
	}
	// Flag bit 1 marked a path-cells section when a node could run
	// popular-path cubing; nothing writes it now, so it is an unknown flag.
	for what, doc := range map[string][]byte{
		"JSON document":       []byte(`{"version":1}`),
		"foreign magic":       mutate(0, 'X'),
		"future version":      mutate(len(snapMagic), snapshotWireVersion+1),
		"previous version":    mutate(len(snapMagic), snapshotWireVersion-1),
		"three dimensions":    mutate(len(snapMagic)+1, 3),
		"no dimensions":       mutate(len(snapMagic)+1, 0),
		"unknown flag":        mutate(len(snapMagic)+2, 0x80),
		"retired path flag":   mutate(len(snapMagic)+2, 1<<1),
		"empty with paths":    mutate(len(snapMagic)+2, flagEmpty|1<<1),
		"level past the tree": mutate(head+4, 9),
		"member past a level": mutate(head+4+2, 200),
	} {
		if !refused(t, schema, doc, what) {
			t.Errorf("%s accepted", what)
		}
	}
	// Result cells no engine lists: each used to decode, a repeated cell
	// folding into one. The result section follows the header: the
	// o-layer cells, then the exceptions, each list behind its count.
	cellSize := 5*len(schema.Dims) + isbSize
	oCount := int(binary.LittleEndian.Uint32(good[head:]))
	oAt := func(i int) int { return head + 4 + i*cellSize }
	excAt := func(i int) int { return oAt(oCount) + 4 + i*cellSize }
	edited := func(edit func(doc []byte)) []byte {
		doc := slices.Clone(good)
		edit(doc)
		return doc
	}
	swap := func(doc []byte, a, b int) {
		first := slices.Clone(doc[a : a+cellSize])
		copy(doc[a:], doc[b:b+cellSize])
		copy(doc[b:], first)
	}
	// The last o-cell, struck from its list with its count.
	dropped := slices.Concat(good[:head], binary.LittleEndian.AppendUint32(nil, uint32(oCount-1)),
		good[head+4:oAt(oCount-1)], good[oAt(oCount):])
	for what, doc := range map[string][]byte{
		"o-cell listed twice":     edited(func(d []byte) { copy(d[oAt(1):], d[oAt(0):oAt(1)]) }),
		"o-cells out of order":    edited(func(d []byte) { swap(d, oAt(0), oAt(1)) }),
		"exception listed twice":  edited(func(d []byte) { copy(d[excAt(1):], d[excAt(0):excAt(1)]) }),
		"exceptions out of order": edited(func(d []byte) { swap(d, excAt(0), excAt(1)) }),
		// The last o-cell's levels moved to the m-layer: still in order.
		"o-cell off the o-layer": edited(func(d []byte) { d[oAt(oCount-1)], d[oAt(oCount-1)+1] = 2, 2 }),
		// The first exception becomes the apex cell: still in order.
		"exception above the o-layer": edited(func(d []byte) {
			at := excAt(0)
			d[at], d[at+1] = 0, 0
			clear(d[at+2 : at+cellSize-isbSize])
		}),
		"exception under no o-cell": dropped,
	} {
		if !refused(t, schema, doc, what) {
			t.Errorf("%s accepted", what)
		}
	}
	// Alerts no engine publishes: MergeSnapshots k-way merges the nodes'
	// alert lists and needs each canonical, each on one of its node's
	// o-cells and of a kind a query can name.
	for what, mutate := range map[string]func(s *Snapshot){
		"alerts out of order": func(s *Snapshot) { s.Alerts[0], s.Alerts[1] = s.Alerts[1], s.Alerts[0] },
		"an alert twice":      func(s *Snapshot) { s.Alerts = append(s.Alerts[:1], s.Alerts...) },
		"an alert of kind 7":  func(s *Snapshot) { s.Alerts[0].Kind = 7 },
		// An alert names an o-cell of its own unit: a unit that closed
		// empty has none.
		"alerts in an empty unit": func(s *Snapshot) {
			alerts := s.Alerts
			*s = *snaps["empty-unit"]
			s.Alerts = alerts
			for i := range alerts {
				alerts[i].Unit = s.Unit
			}
		},
		"an alert on an m-layer cell": func(s *Snapshot) {
			last := &s.Alerts[len(s.Alerts)-1]
			last.Cell = cube.NewCellKey(schema.MLayer(), 3, 3)
		},
	} {
		hostile := *flat
		hostile.Alerts = slices.Clone(flat.Alerts)
		mutate(&hostile)
		doc, err := EncodeSnapshot(&hostile)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !refused(t, schema, doc, what) {
			t.Errorf("%s accepted", what)
		}
	}
	// A version-4 document (each alert with its unit, regression and
	// supporters) and a version-5 one (no origin) are refused by their
	// version, not misread.
	for _, v := range []byte{4, 5} {
		if _, err := DecodeSnapshot(schema, mutate(len(snapMagic), v)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, want 6", v)) {
			t.Errorf("version-%d document: %v, want a version error", v, err)
		}
	}

	// Well-formed documents whose frames or chain no engine publishes:
	// each used to decode.
	tilted := snaps["tilted"]
	for what, mutate := range map[string]func(s *Snapshot){
		"frame off the o-layer":    func(s *Snapshot) { s.Frames[0].Levels[0] = 2 },
		"member outside it":        func(s *Snapshot) { s.Frames[1].Members[1] = 2 },
		"level count unlike chain": func(s *Snapshot) { s.Frames[0].Frame.Levels = s.Frames[0].Frame.Levels[:1] },
		"out-of-order slots": func(s *Snapshot) {
			sl := s.Frames[2].Frame.Levels[0].Slots
			sl[0], sl[1] = sl[1], sl[0]
		},
		"frame ending elsewhere":   func(s *Snapshot) { s.Frames[0].Base++ },
		"frame on another grid":    func(s *Snapshot) { s.Frames[0].Frame.NextTb++ },
		"two frames for a cell":    func(s *Snapshot) { s.Frames = append(s.Frames[:1], s.Frames...) },
		"frames out of order":      func(s *Snapshot) { s.Frames[0], s.Frames[1] = s.Frames[1], s.Frames[0] },
		"no level chain":           func(s *Snapshot) { s.Chain = nil },
		"chain of no slots":        func(s *Snapshot) { s.Chain[1].Slots = 0 },
		"chain of a zero multiple": func(s *Snapshot) { s.Chain[1].Multiple = 0 },
	} {
		hostile := *tilted
		hostile.Chain = slices.Clone(tilted.Chain)
		hostile.Frames = cloneFrames(tilted.Frames)
		mutate(&hostile)
		doc, err := EncodeSnapshot(&hostile)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !refused(t, schema, doc, what) {
			t.Errorf("%s accepted", what)
		}
	}

	// Successor documents: one applies to the snapshot of the unit before
	// it, of its origin and level chain, and to nothing else. A second
	// engine fed the same stream publishes the same snapshots under
	// another origin, as a restarted node does.
	var runs [2][]*Snapshot
	for i := range runs {
		cfg := snapshotTestConfig(t)
		cfg.TiltLevels = tilted.Chain
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedUnits(t, func(m []int32, tick int64, v float64) {
			if _, err := eng.Ingest(m, tick, v); err != nil {
				t.Fatal(err)
			}
			if s := eng.Snapshot(); s != nil && (len(runs[i]) == 0 || runs[i][len(runs[i])-1] != s) {
				runs[i] = append(runs[i], s)
			}
		}, cfg, 4)
	}
	decoded := func(s *Snapshot) *Snapshot {
		doc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshot(schema, doc)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	successor, err := EncodeSuccessor(runs[0][2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotAfter(schema, decoded(runs[0][1]), successor); err != nil {
		t.Fatalf("successor to its predecessor: %v", err)
	}
	otherChain := decoded(runs[0][1])
	otherChain.Chain = slices.Clone(otherChain.Chain)
	otherChain.Chain[1].Slots++
	for what, prev := range map[string]*Snapshot{
		"successor with no predecessor":           nil,
		"successor to the unit before its own":    decoded(runs[0][0]),
		"successor to its own unit":               decoded(runs[0][2]),
		"successor to another level chain":        otherChain,
		"successor to another origin's unit":      decoded(runs[1][1]),
		"successor to a merge of its predecessor": mustMerge(t, schema, decoded(runs[0][1])),
	} {
		_, err := DecodeSnapshotAfter(schema, prev, successor)
		if !errors.Is(err, ErrRecord) {
			t.Errorf("%s: %v, want ErrRecord", what, err)
		}
	}
	// An o-cell that regresses over another interval than its unit would
	// start a frame no engine could hold: here the first o-cell's, once its
	// frame is gone from the predecessor.
	shifted := slices.Clone(successor)
	at := snapHeaderLen(runs[0][2]) + 4 + 5*len(schema.Dims)
	for _, off := range []int{at, at + 8} {
		binary.LittleEndian.PutUint64(shifted[off:], binary.LittleEndian.Uint64(shifted[off:])+4)
	}
	lacking := decoded(runs[0][1])
	lacking.Frames = lacking.Frames[1:]
	if _, err := DecodeSnapshotAfter(schema, lacking, shifted); !errors.Is(err, ErrRecord) {
		t.Errorf("successor with an o-cell off its unit: %v, want ErrRecord", err)
	}
	if !refused(t, schema, successor, "successor alone") {
		t.Error("DecodeSnapshot accepted a successor document")
	}
	if _, err := EncodeSuccessor(mustMerge(t, schema, runs[0][2])); !errors.Is(err, ErrRecord) {
		t.Errorf("successor of a merged snapshot: %v", err)
	}
}

// mustMerge is MergeSnapshots of one part: a snapshot of no origin.
func mustMerge(t *testing.T, schema *cube.Schema, s *Snapshot) *Snapshot {
	t.Helper()
	m, err := MergeSnapshots(schema, []*Snapshot{s})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// snapHeaderLen is the length of a snapshot document's header: the fixed
// fields, then the level chain.
func snapHeaderLen(s *Snapshot) int {
	n := len(snapMagic) + 3 + 40 + 4
	for _, lv := range s.Chain {
		n += 4 + len(lv.Name) + 16
	}
	return n
}

// cloneFrames deep-copies frame records, so a test can damage the copy.
func cloneFrames(frames []CellFrame) []CellFrame {
	out := slices.Clone(frames)
	for i := range out {
		f := &out[i]
		f.Levels, f.Members = slices.Clone(f.Levels), slices.Clone(f.Members)
		f.Frame.Levels = slices.Clone(f.Frame.Levels)
		for j := range f.Frame.Levels {
			f.Frame.Levels[j].Slots = slices.Clone(f.Frame.Levels[j].Slots)
		}
	}
	return out
}

// FuzzDecodeSnapshot holds the decoder to its contract on arbitrary
// bytes: never panic, fail only with ErrRecord, and hand back something
// the encoder turns into a canonical document (a fixed point of
// decode→encode).
func FuzzDecodeSnapshot(f *testing.F) {
	schema := snapshotTestSchema(f)
	for _, snap := range codecSnapshots(f) {
		data, err := EncodeSnapshot(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	// Every input is also offered as the successor of one predecessor,
	// decoded afresh each time (a record takes one successor), and seeded
	// with the true successor: whatever frames a successor rebuilds must
	// make a document the full decoder accepts.
	cfg := snapshotTestConfig(f)
	cfg.TiltLevels = []tilt.Level{{Name: "fine", Multiple: 1, Slots: 2}, {Name: "coarse", Multiple: 2, Slots: 2}}
	eng, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var pair []*Snapshot
	feedUnits(f, func(m []int32, tick int64, v float64) {
		if _, err := eng.Ingest(m, tick, v); err != nil {
			f.Fatal(err)
		}
		if s := eng.Snapshot(); s != nil && (len(pair) == 0 || pair[len(pair)-1] != s) {
			pair = append(pair, s)
		}
	}, cfg, 4)
	prevDoc, err := EncodeSnapshot(pair[1])
	if err != nil {
		f.Fatal(err)
	}
	successor, err := EncodeSuccessor(pair[2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(successor)
	f.Fuzz(func(t *testing.T, data []byte) {
		prev, err := DecodeSnapshot(schema, prevDoc)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshotAfter(schema, prev, data)
		if err != nil {
			if !errors.Is(err, ErrRecord) {
				t.Fatalf("%v is not ErrRecord", err)
			}
			return
		}
		canon, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		again, err := DecodeSnapshot(schema, canon)
		if err != nil {
			t.Fatalf("decoding the canonical form: %v", err)
		}
		if twice, err := EncodeSnapshot(again); err != nil || !bytes.Equal(twice, canon) {
			t.Fatalf("canonical form is not a fixed point (%v)", err)
		}
	})
}

// BenchmarkSnapshotCodec times the codec on the snapshot one cluster_serve
// node ships once its history is full: 512 m-cells under 16 o-cells of a
// fanout-8 schema, 64 units of history per o-cell — not the young snapshot
// the suite's traced rig encodes — and the successor document of its unit
// decoded against the unit before, as a following coordinator does.
func BenchmarkSnapshotCodec(b *testing.B) {
	schema := fanoutSchema(b, 8, 2)
	eng, err := NewEngine(Config{Schema: schema, TicksPerUnit: 10, Threshold: exception.Global(1), PublishSnapshots: true})
	if err != nil {
		b.Fatal(err)
	}
	var prev *Snapshot
	for tick := int64(0); tick < 10*70; tick++ {
		if tick == 10*69 {
			prev = eng.Snapshot()
		}
		for a := int32(0); a < 16; a++ {
			for c := int32(0); c < 64; c += 2 {
				// One m-cell in ten trends past the threshold.
				slope := 0.1
				if (a*32+c/2)%10 == 0 {
					slope = 1.5
				}
				if _, err := eng.Ingest([]int32{a, c}, tick, slope*float64(tick)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	snap := eng.Snapshot()
	if got := snap.HistoryLen(snap.Alerts[0].Cell); got != 64 {
		b.Fatalf("history holds %d units, want the full 64", got)
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := EncodeSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "doc-bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := DecodeSnapshot(schema, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	prevDoc, err := EncodeSnapshot(prev)
	if err != nil {
		b.Fatal(err)
	}
	successor, err := EncodeSuccessor(snap)
	if err != nil {
		b.Fatal(err)
	}
	// A predecessor decoded from its full document holds its slots without
	// spare capacity, so no push writes into it and it may take any number
	// of successors; each push copies the slots a mirror's later pushes
	// mostly append to in place.
	held, err := DecodeSnapshot(schema, prevDoc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-successor", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(successor)))
		for b.Loop() {
			if _, err := DecodeSnapshotAfter(schema, held, successor); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(successor)), "doc-bytes")
	})
}

// TestMergeSnapshotsRefusesOverlap: parts that share a result cell or a
// frame are not disjoint partitions — one node's snapshot twice, say —
// and merging them would double its summary stats and alerts. They are
// refused by name, at every snapshot shape, the empty unit (frames only)
// included.
func TestMergeSnapshotsRefusesOverlap(t *testing.T) {
	schema := snapshotTestSchema(t)
	for name, s := range codecSnapshots(t) {
		_, err := MergeSnapshots(schema, []*Snapshot{s, s})
		if !errors.Is(err, ErrRecord) || !strings.Contains(err.Error(), "parts share") {
			t.Errorf("%s: merging a snapshot with itself: %v, want a shared-cell ErrRecord", name, err)
		}
	}
}
