package stream

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// This file is the snapshot wire codec: the binary document a node's
// GET /v1/snapshot ships and the cluster coordinator's gather tier
// decodes and merges. It lives in this package (not internal/serve or
// internal/cluster) because it is the third leg of the snapshot
// contract — publish (snapshot.go), merge (sharded.go), and now
// transfer — and both the server and the coordinator need it without
// importing each other.
//
// A cell's regression is four numbers (the ISB, §3.2), so the document is
// fixed-size records behind counts. All integers are little-endian, floats
// travel as their IEEE-754 bits (−0, ±Inf and NaN payloads survive):
//
//	header   "RCSN" · version u8 · dims u8 · flags u8 · unit · interval Tb,Te · unitsDone
//	result   oLayer cells · exceptions cells · stats   (absent when empty)
//	alerts   u32 × (unit · kind · key · ISB · drill cells)
//	frames   u32 × (key · base · u32 × (name · unitTicks · capacity · completed · u32 × point))
//
//	cells = u32 × (key · ISB)     key = levels[dims]u8 · members[dims]i32
//	ISB = Tb,Te i64 · Base,Slope f64     point = unit i64 · ISB
//	stats = algorithm · 11 × i64 in core.Stats field order     strings = u32 length · bytes
//
// A frame has at least one level, and its finest level is the cell's
// per-unit history (version 2 carried that a second time, as a history
// section); a point's unit is the slot's ordinal at its level.
// dims is the dimension count of the cells, 0 in a document without any
// (a first unit that closed empty). Every list is in canonical order
// (cube.CompareKeys; alerts as published), so encoding is deterministic:
// two nodes holding equal state encode equal bytes. Every count is
// checked against the bytes that remain before anything is allocated for
// it.

const (
	snapMagic = "RCSN"
	// snapshotWireVersion is the /v1/snapshot document version (1 was
	// JSON, 2 had a history section and optional frames).
	snapshotWireVersion = 3

	flagEmpty = 1 << 0 // the unit closed with no data: no result section

	isbSize   = 32
	pointSize = 8 + isbSize
)

// snapWriter appends the document's primitives to one buffer. A cell of
// another dimension count than the first one written sticks in err.
type snapWriter struct {
	buf []byte
	nd  int
	err error
}

func (w *snapWriter) i64(v int64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }

// count writes a record count; 2³² records of any kind do not fit a
// process, let alone a document.
func (w *snapWriter) count(n int) { w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(n)) }

func (w *snapWriter) str(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

func (w *snapWriter) key(k cube.CellKey) {
	if w.nd == 0 {
		w.nd = k.Cuboid.NumDims()
		w.buf[len(snapMagic)+1] = byte(w.nd) // the header's dims
	}
	if k.Cuboid.NumDims() != w.nd && w.err == nil {
		w.err = fmt.Errorf("%w: %d-dimensional cell in a %d-dimensional snapshot", ErrRecord, k.Cuboid.NumDims(), w.nd)
	}
	for d := 0; d < w.nd; d++ {
		w.buf = append(w.buf, byte(k.Cuboid.Level(d)))
	}
	for d := 0; d < w.nd; d++ {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(k.Members[d]))
	}
}

func (w *snapWriter) isb(v regression.ISB) {
	w.i64(v.Tb)
	w.i64(v.Te)
	w.f64(v.Base)
	w.f64(v.Slope)
}

func (w *snapWriter) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

func (w *snapWriter) cells(m map[cube.CellKey]regression.ISB) {
	w.count(len(m))
	for _, k := range core.SortedCellKeys(m) {
		w.key(k)
		w.isb(m[k])
	}
}

// EncodeSnapshot serializes a published snapshot into the /v1/snapshot
// wire document. Encoding is deterministic: every cell list, alert, and
// frame is emitted in canonical key order.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrRecord)
	}
	var flags byte
	size := 1 << 10
	if res := s.Result; res == nil {
		flags |= flagEmpty
	} else {
		size += (len(res.OLayer) + len(res.Exceptions)) * 2 * pointSize
	}
	for _, v := range s.Frames {
		size += 2 * pointSize
		for _, lv := range v.Levels {
			size += (1 + len(lv.Slots)) * pointSize
		}
	}
	w := snapWriter{buf: append(make([]byte, 0, size), snapMagic...)}
	w.buf = append(w.buf, snapshotWireVersion, 0, flags)
	w.i64(s.Unit)
	w.i64(s.Interval.Tb)
	w.i64(s.Interval.Te)
	w.i64(s.UnitsDone)

	if res := s.Result; res != nil {
		w.cells(res.OLayer)
		w.cells(res.Exceptions)
		st := &res.Stats
		w.str(st.Algorithm)
		for _, v := range [...]int64{int64(st.Tuples), int64(st.TreeNodes), int64(st.TreeLeaves), int64(st.CuboidsComputed),
			st.CellsComputed, st.CellsRetained, st.PeakScratchCells, st.BytesRetained, st.PeakBytes,
			int64(st.BuildTime), int64(st.CubeTime)} {
			w.i64(v)
		}
	}

	// Snapshot alerts are canonical as published.
	w.count(len(s.Alerts))
	for _, a := range s.Alerts {
		w.i64(a.Unit)
		w.i64(int64(a.Kind))
		w.key(a.Cell)
		w.isb(a.ISB)
		w.count(len(a.Drill))
		for _, d := range a.Drill {
			w.key(d.Key)
			w.isb(d.ISB)
		}
	}

	w.count(len(s.Frames))
	for _, k := range core.SortedCellKeys(s.Frames) {
		v := s.Frames[k]
		w.key(k)
		w.i64(v.Base)
		w.count(len(v.Levels))
		for _, lv := range v.Levels {
			w.str(lv.Name)
			w.i64(lv.UnitTicks)
			w.i64(int64(lv.Capacity))
			w.i64(lv.Completed)
			w.count(len(lv.Slots))
			for _, sl := range lv.Slots {
				w.i64(sl.Unit)
				w.isb(sl.ISB)
			}
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// snapReader consumes the document front to back. The first failure
// sticks in err and every later read returns zero, so a section's loop —
// bounded by a count already checked against the remaining bytes — runs
// out harmlessly and the caller tests err once at the end.
type snapReader struct {
	doc  string // the document kind, for error messages
	size int    // the whole document's length: size − len(data) is the read offset
	data []byte
	nd   int
	// card[d][l] is the member count of dimension d at level l; a key
	// outside it would index past a hierarchy when a query renders it.
	card [cube.MaxDims][]int
	err  error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s document at offset %d: %s", ErrRecord, r.doc, r.size-len(r.data), fmt.Sprintf(format, args...))
	}
}

// take returns the next n > 0 bytes, or nil (and fails) when fewer remain.
func (r *snapReader) take(n int) []byte {
	if r.err != nil || n > len(r.data) {
		r.fail("truncated")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *snapReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// count reads a record count and checks that many records of at least
// elem bytes each can still follow, so no allocation outruns the input.
func (r *snapReader) count(elem int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n)*uint64(elem) > uint64(len(r.data)) {
		r.fail("count %d exceeds the %d bytes that remain", n, len(r.data))
		return 0
	}
	return int(n)
}

func (r *snapReader) str() string {
	if n := r.count(1); n > 0 {
		return string(r.take(n))
	}
	return ""
}

func (r *snapReader) key() cube.CellKey {
	if r.nd == 0 {
		r.fail("cell in a document of no dimensions")
		return cube.CellKey{}
	}
	b := r.take(5 * r.nd)
	if b == nil {
		return cube.CellKey{}
	}
	var levels [cube.MaxDims]int
	var k cube.CellKey
	for d := 0; d < r.nd; d++ {
		levels[d] = int(b[d])
		k.Members[d] = int32(binary.LittleEndian.Uint32(b[r.nd+4*d:]))
		if levels[d] >= len(r.card[d]) || k.Members[d] < 0 || int(k.Members[d]) >= r.card[d][levels[d]] {
			r.fail("no member %d at level %d of dimension %d", k.Members[d], levels[d], d)
			return cube.CellKey{}
		}
	}
	k.Cuboid, _ = cube.NewCuboid(levels[:r.nd]...) // 1..MaxDims levels of one byte each: cannot fail
	return k
}

func (r *snapReader) isb() regression.ISB {
	b := r.take(isbSize)
	if b == nil {
		return regression.ISB{}
	}
	return regression.ISB{
		Tb:    int64(binary.LittleEndian.Uint64(b)),
		Te:    int64(binary.LittleEndian.Uint64(b[8:])),
		Base:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Slope: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

func (r *snapReader) cells() map[cube.CellKey]regression.ISB {
	n := r.count(5*r.nd + isbSize)
	out := make(map[cube.CellKey]regression.ISB, n)
	for range n {
		k := r.key()
		out[k] = r.isb()
	}
	return out
}

// DecodeSnapshot parses a /v1/snapshot document back into a Snapshot. The
// schema supplies the dimension count, levels and members the coordinates
// are validated against; the returned snapshot's Result carries that
// schema, exactly as a local engine's would. Anything but one whole
// well-formed document — truncation, trailing bytes, a count the bytes
// cannot back, a cell outside the schema — is ErrRecord.
func DecodeSnapshot(schema *cube.Schema, data []byte) (*Snapshot, error) {
	r := snapReader{doc: "snapshot", size: len(data), data: data}
	head := r.take(len(snapMagic) + 3)
	if head == nil || string(head[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: not a snapshot document", ErrRecord)
	}
	version, flags := head[len(snapMagic)], head[len(snapMagic)+2]
	r.nd = int(head[len(snapMagic)+1])
	if version != snapshotWireVersion {
		return nil, fmt.Errorf("%w: snapshot document version %d, want %d", ErrRecord, version, snapshotWireVersion)
	}
	if r.nd != 0 && r.nd != len(schema.Dims) {
		return nil, fmt.Errorf("%w: snapshot document has %d dimensions, schema has %d", ErrRecord, r.nd, len(schema.Dims))
	}
	if flags&^flagEmpty != 0 {
		return nil, fmt.Errorf("%w: snapshot document flags %#x", ErrRecord, flags)
	}
	for d := 0; d < r.nd; d++ {
		h := schema.Dims[d].Hierarchy
		r.card[d] = make([]int, h.Levels()+1)
		for l := range r.card[d] {
			r.card[d][l] = h.Cardinality(l)
		}
	}
	cellSize := 5*r.nd + isbSize

	s := &Snapshot{Unit: r.i64()}
	s.Interval.Tb = r.i64()
	s.Interval.Te = r.i64()
	s.UnitsDone = r.i64()

	if flags&flagEmpty == 0 {
		res := &core.Result{Schema: schema}
		res.OLayer = r.cells()
		res.Exceptions = r.cells()
		st := &res.Stats
		st.Algorithm = r.str()
		st.Tuples, st.TreeNodes, st.TreeLeaves, st.CuboidsComputed = int(r.i64()), int(r.i64()), int(r.i64()), int(r.i64())
		st.CellsComputed, st.CellsRetained, st.PeakScratchCells = r.i64(), r.i64(), r.i64()
		st.BytesRetained, st.PeakBytes = r.i64(), r.i64()
		st.BuildTime, st.CubeTime = time.Duration(r.i64()), time.Duration(r.i64())
		s.Result = res
	}

	s.Alerts = make([]Alert, r.count(16+cellSize+4))
	for i := range s.Alerts {
		a := &s.Alerts[i]
		a.Unit = r.i64()
		a.Kind = AlertKind(r.i64())
		a.Cell = r.key()
		a.ISB = r.isb()
		if n := r.count(cellSize); n > 0 {
			a.Drill = make([]core.Cell, n)
			for j := range a.Drill {
				a.Drill[j].Key = r.key()
				a.Drill[j].ISB = r.isb()
			}
		}
	}

	const levelSize = 4 + 3*8 + 4
	cells := r.count(5*r.nd + 8 + 4 + levelSize)
	s.Frames = make(map[cube.CellKey]*FrameView, cells)
	for range cells {
		k := r.key()
		v := &FrameView{Base: r.i64()}
		v.Levels = make([]FrameLevelView, r.count(levelSize))
		if len(v.Levels) == 0 {
			r.fail("frame of no levels")
		}
		for j := range v.Levels {
			lv := &v.Levels[j]
			lv.Name = r.str()
			lv.UnitTicks = r.i64()
			lv.Capacity = int(r.i64())
			lv.Completed = r.i64()
			lv.Slots = make([]tilt.Slot, r.count(pointSize))
			for x := range lv.Slots {
				lv.Slots[x].Unit = r.i64()
				lv.Slots[x].ISB = r.isb()
			}
		}
		s.Frames[k] = v
	}
	if len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// MergeSnapshots combines per-node snapshots of the same closed unit into
// the cluster-wide view, with exactly the union-and-merge semantics the
// sharded coordinator applies at its barriers (advanceTo): cell maps are
// disjoint by the partition invariant so merging is a union, the nodes'
// alert lists (canonical as published) merge into one canonical list, and
// per-node stats fold through mergeStats. Every snapshot must describe the same unit; mismatched
// units mean the gather tier fetched without aligning watermarks first.
func MergeSnapshots(schema *cube.Schema, snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots to merge", ErrRecord)
	}
	first := snaps[0]
	for _, s := range snaps[1:] {
		if s.Unit != first.Unit || s.UnitsDone != first.UnitsDone {
			return nil, fmt.Errorf("%w: snapshot units diverge (%d/%d done vs %d/%d done)",
				ErrRecord, s.Unit, s.UnitsDone, first.Unit, first.UnitsDone)
		}
		if s.Interval != first.Interval {
			return nil, fmt.Errorf("%w: snapshot intervals diverge at unit %d", ErrRecord, s.Unit)
		}
	}
	out := &Snapshot{
		Unit:      first.Unit,
		Interval:  first.Interval,
		UnitsDone: first.UnitsDone,
		Frames:    make(map[cube.CellKey]*FrameView),
	}
	results := make([]*core.Result, len(snaps))
	alerts := make([][]Alert, len(snaps))
	for i, s := range snaps {
		results[i], alerts[i] = s.Result, s.Alerts
		maps.Copy(out.Frames, s.Frames)
	}
	out.Result = unionResults(schema, results)
	out.Alerts = mergeAlerts(alerts)
	return out, nil
}
