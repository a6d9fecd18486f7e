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

// snapshotsEquivalent asserts two snapshots carry identical analyst-visible
// state (summary stats excluded — wall-clock fields are never comparable).
func snapshotsEquivalent(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Unit != want.Unit || got.UnitsDone != want.UnitsDone || got.Interval != want.Interval {
		t.Fatalf("header (%d,%d,%+v) != (%d,%d,%+v)",
			got.Unit, got.UnitsDone, got.Interval, want.Unit, want.UnitsDone, want.Interval)
	}
	if (got.Result == nil) != (want.Result == nil) {
		t.Fatalf("Result nil-ness differs")
	}
	if got.Result != nil {
		requireSameCells(t, "result", want.Result, got.Result)
	}
	if !reflect.DeepEqual(got.Alerts, want.Alerts) {
		t.Fatalf("alerts differ:\n%+v\n%+v", got.Alerts, want.Alerts)
	}
	if !reflect.DeepEqual(got.Frames, want.Frames) {
		t.Fatal("frames differ")
	}
}

// TestSnapshotCodecRoundTrip proves Encode→Decode reproduces the full
// snapshot and that encoding is deterministic (canonical cell order, so
// equal state means equal bytes).
func TestSnapshotCodecRoundTrip(t *testing.T) {
	cfg := snapshotTestConfig(t)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUnits(t, func(m []int32, tick int64, v float64) {
		if _, err := eng.Ingest(m, tick, v); err != nil {
			t.Fatal(err)
		}
	}, cfg, 3)
	snap := eng.Snapshot()
	if snap == nil || snap.Result == nil {
		t.Fatal("no published snapshot")
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeSnapshot(cfg.Schema, data)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEquivalent(t, dec, snap)
	if dec.Result.Stats.Tuples != snap.Result.Stats.Tuples {
		t.Fatalf("stats tuples %d != %d", dec.Result.Stats.Tuples, snap.Result.Stats.Tuples)
	}
	// Re-encoding the decoded snapshot reproduces the bytes exactly.
	data2, err := EncodeSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("decode→encode is not the identity")
	}
}

// TestSnapshotCodecTilted covers the tilted-frame leg of the codec.
func TestSnapshotCodecTilted(t *testing.T) {
	cfg := snapshotTestConfig(t)
	cfg.TiltLevels = []tilt.Level{{Name: "fine", Multiple: 1, Slots: 4}, {Name: "coarse", Multiple: 2, Slots: 3}}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUnits(t, func(m []int32, tick int64, v float64) {
		if _, err := eng.Ingest(m, tick, v); err != nil {
			t.Fatal(err)
		}
	}, cfg, 5)
	snap := eng.Snapshot()
	if snap == nil || snap.Frames == nil {
		t.Fatal("no tilted snapshot")
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(cfg.Schema, data)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEquivalent(t, dec, snap)
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
	// supporters) is refused by its version, not misread.
	if _, err := DecodeSnapshot(schema, mutate(len(snapMagic), 4)); err == nil || !strings.Contains(err.Error(), "version 4, want 5") {
		t.Errorf("version-4 document: %v, want a version error", err)
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
}

// snapHeaderLen is the length of a snapshot document's header: the fixed
// fields, then the level chain.
func snapHeaderLen(s *Snapshot) int {
	n := len(snapMagic) + 3 + 32 + 4
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
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(schema, data)
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

// TestMergeSnapshotsMatchesSharded is the gather tier's core guarantee:
// per-node snapshots round-tripped through the wire codec and merged with
// MergeSnapshots must equal both the sharded coordinator's own merged
// snapshot and a single engine's snapshot of the same stream, at 1, 2, 4
// and 7 nodes.
func TestMergeSnapshotsMatchesSharded(t *testing.T) {
	cfg := snapshotTestConfig(t)

	// Reference: one engine over the whole stream.
	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUnits(t, func(m []int32, tick int64, v float64) {
		if _, err := single.Ingest(m, tick, v); err != nil {
			t.Fatal(err)
		}
	}, cfg, 3)
	if _, err := single.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	want := single.Snapshot()

	for _, nodes := range []int{1, 2, 4, 7} {
		// Cluster stand-in: partition the same stream across the per-node
		// engines with the shared Partitioner, advance them in lockstep at
		// each boundary (the router's barrier), then merge their
		// snapshots. The coordinator at as many shards sees it all.
		part, err := NewPartitioner(cfg.Schema, nodes)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]*Engine, nodes)
		for i := range engines {
			if engines[i], err = NewEngine(cfg); err != nil {
				t.Fatal(err)
			}
		}
		sharded, err := NewEngine(withShards(cfg, nodes))
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()
		lastUnit := int64(0)
		feedUnits(t, func(m []int32, tick int64, v float64) {
			if u := tick / int64(cfg.TicksPerUnit); u > lastUnit {
				// The router's barrier: every node closes the boundary's
				// units before any node sees the next unit's records.
				for _, e := range engines {
					if _, err := e.AdvanceTo(u); err != nil {
						t.Fatal(err)
					}
				}
				lastUnit = u
			}
			sid, err := part.Route(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engines[sid].Ingest(m, tick, v); err != nil {
				t.Fatal(err)
			}
			if _, err := sharded.Ingest(m, tick, v); err != nil {
				t.Fatal(err)
			}
		}, cfg, 3)
		for _, e := range append(engines, sharded) {
			if _, err := e.AdvanceTo(3); err != nil {
				t.Fatal(err)
			}
		}
		snaps := make([]*Snapshot, nodes)
		for i, e := range engines {
			data, err := EncodeSnapshot(e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if snaps[i], err = DecodeSnapshot(cfg.Schema, data); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeSnapshots(cfg.Schema, snaps)
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEquivalent(t, merged, want)
		snapshotsEquivalent(t, merged, sharded.Snapshot())

		// Unit-mismatched snapshots must be rejected: the gather tier
		// fetches only after aligning watermarks.
		if nodes == 1 {
			continue
		}
		if _, err := engines[0].AdvanceTo(4); err != nil {
			t.Fatal(err)
		}
		data, err := EncodeSnapshot(engines[0].Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if snaps[0], err = DecodeSnapshot(cfg.Schema, data); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeSnapshots(cfg.Schema, snaps); err == nil {
			t.Fatalf("%d nodes: diverged units merged", nodes)
		}
	}
}

// BenchmarkSnapshotCodec times the codec on the snapshot one cluster_serve
// node ships once its history is full: 512 m-cells under 16 o-cells of a
// fanout-8 schema, 64 units of history per o-cell — not the young snapshot
// the suite's traced rig encodes.
func BenchmarkSnapshotCodec(b *testing.B) {
	ha, err := cube.NewFanoutHierarchy("A", 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	hb, err := cube.NewFanoutHierarchy("B", 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(Config{Schema: schema, TicksPerUnit: 10, Threshold: exception.Global(1), PublishSnapshots: true})
	if err != nil {
		b.Fatal(err)
	}
	for tick := int64(0); tick < 10*70; tick++ {
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
