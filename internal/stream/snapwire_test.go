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
	"repro/internal/regression"
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
		if !reflect.DeepEqual(got.Result.OLayer, want.Result.OLayer) {
			t.Fatal("o-layers differ")
		}
		if !reflect.DeepEqual(got.Result.Exceptions, want.Result.Exceptions) {
			t.Fatal("exception sets differ")
		}
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
	drills, changes := 0, 0
	for _, a := range out["flat"].Alerts {
		drills += len(a.Drill)
	}
	for _, a := range out["slope-change"].Alerts {
		if a.Kind == SlopeChange {
			changes++
		}
	}
	if drills == 0 || changes == 0 || out["tilted"].Frames == nil || out["empty-unit"].Result != nil {
		t.Fatalf("fixture lost a shape: %d drill cells, snapshots %+v", drills, out)
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
		if snap.Result != nil {
			dec.Result.Schema = snap.Result.Schema // the decoder carries its caller's schema
		}
		if !reflect.DeepEqual(dec, snap) {
			t.Errorf("%s: decoded snapshot differs:\n got %+v\nwant %+v", name, dec, snap)
		}
		again, err := EncodeSnapshot(dec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: decode→encode is not the identity", name)
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
	hostile := *snap
	res := *snap.Result
	hostile.Result = &res
	res.OLayer = make(map[cube.CellKey]regression.ISB)
	i := 0
	for k, v := range snap.Result.OLayer {
		v.Base = math.Float64frombits(patterns[i%len(patterns)])
		v.Slope = math.Float64frombits(patterns[(i+1)%len(patterns)])
		res.OLayer[k] = v
		i++
	}
	data, err := EncodeSnapshot(&hostile)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range res.OLayer {
		got := dec.Result.OLayer[k]
		if math.Float64bits(got.Base) != math.Float64bits(want.Base) || math.Float64bits(got.Slope) != math.Float64bits(want.Slope) {
			t.Fatalf("cell %v: bits %#x/%#x, want %#x/%#x", k, math.Float64bits(got.Base), math.Float64bits(got.Slope),
				math.Float64bits(want.Base), math.Float64bits(want.Slope))
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
		// directly follows the fixed header.
		copy(corrupt, data)
		binary.LittleEndian.PutUint32(corrupt[len(snapMagic)+3+32:], math.MaxUint32)
		if !refused(t, schema, corrupt, name+" first count") {
			t.Fatalf("%s: first count of 0xFFFFFFFF accepted", name)
		}
	}

	good, err := EncodeSnapshot(codecSnapshots(t)["flat"])
	if err != nil {
		t.Fatal(err)
	}
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
		"level past the tree": mutate(len(snapMagic)+3+32+4, 9),
		"member past a level": mutate(len(snapMagic)+3+32+4+2, 200),
	} {
		if !refused(t, schema, doc, what) {
			t.Errorf("%s accepted", what)
		}
	}
	// A version-2 document (history section, optional frames) is refused by
	// its version, not misread.
	if _, err := DecodeSnapshot(schema, mutate(len(snapMagic), 2)); err == nil || !strings.Contains(err.Error(), "version 2, want 3") {
		t.Errorf("version-2 document: %v, want a version error", err)
	}
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
// per-shard snapshots round-tripped through the wire codec and merged with
// MergeSnapshots must equal both the sharded coordinator's own merged
// snapshot and a single engine's snapshot of the same stream.
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

	// Cluster stand-in: partition the same stream across 4 per-node
	// engines with the shared Partitioner, advance them in lockstep at
	// each boundary (the router's barrier), then merge their snapshots.
	const nodes = 4
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
	}, cfg, 3)
	for _, e := range engines {
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

	// Unit-mismatched snapshots must be rejected: the gather tier fetches
	// only after aligning watermarks.
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
		t.Fatal("diverged units merged")
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
