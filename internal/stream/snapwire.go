package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// contract — publish (snapshot.go), merge (shard.go), and transfer — and
// both the server and the coordinator need it without importing each
// other.
//
// A cell's regression is four numbers (the ISB, §3.2), so the document is
// fixed-size records behind counts. All integers are little-endian, floats
// travel as their IEEE-754 bits (−0, ±Inf and NaN payloads survive):
//
//	header   "RCSN" · version u8 · dims u8 · flags u8 · unit · interval Tb,Te · unitsDone
//	         · origin u64 · chain u32 × (name · multiple · slots)
//	result   oLayer cells · exceptions cells · stats   (absent when empty)
//	alerts   u32 × (kind u8 · key)
//	frames   u32 × (key · base · unitTicks · nextTb · pushed · u32 × (completed · u32 × point))
//	         (absent from a successor document)
//
//	cells = u32 × (key · ISB)     key = levels[dims]u8 · members[dims]i32
//	ISB = Tb,Te i64 · Base,Slope f64     point = unit i64 · ISB
//	stats = algorithm · 11 × i64 in core.Stats field order     strings = u32 length · bytes
//
// The tilt level chain is written once, and each frame is the checkpoint
// document's CellFrame record, its levels following the chain. dims is
// the dimension count of the cells, 0 in a document without any (a first
// unit that closed empty). Every list is in canonical order
// (cube.CompareKeys; alerts as published), so equal state encodes to equal
// bytes. An alert is its kind and o-cell: its unit is the header's and its
// regression the o-cell's, and its supporters are read off the result
// (core.Result.Supporters). Every count is checked against the bytes that
// remain before anything is allocated for it, and every frame before it is
// handed out.
//
// A successor document (flagSuccessor, EncodeSuccessor) is the document of
// the unit after one its reader holds, minus the frames section: the frames
// are a pure function of the predecessor's and the unit's o-layer
// (AdvanceFrames), so the reader rebuilds them bit for bit
// (DecodeSnapshotAfter) once the header's origin — the engine run that
// published the snapshot (Snapshot.Origin) — says both units came from one
// run. A decoder refuses any flag it does not know, and nothing sends a
// successor unasked.

const (
	snapMagic = "RCSN"
	// snapshotWireVersion is the /v1/snapshot document version (1 was
	// JSON, 2 had a history section and optional frames, 3 frames in an
	// encoding of their own, 4 each alert's unit, regression and
	// supporters, 5 no origin and no successor flag).
	snapshotWireVersion = 6

	flagEmpty = 1 << 0 // the unit closed with no data: no result section
	// Bit 1 marked a path-cells section, when a node could run
	// popular-path cubing; it is retired, not reused.
	flagSuccessor = 1 << 2 // the successor of the reader's snapshot: no frames section

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

// dims takes a cell of n dimensions in a document of w.nd: a snapshot's
// first cell fixes its count (the header's dims byte); a cell of another
// count sticks in err.
func (w *snapWriter) dims(n int) {
	if w.nd == 0 {
		w.nd = n
		w.buf[len(snapMagic)+1] = byte(n)
	} else if n != w.nd && w.err == nil {
		w.err = fmt.Errorf("%w: %d-dimensional cell in a %d-dimensional document", ErrRecord, n, w.nd)
	}
}

func (w *snapWriter) key(k cube.CellKey) {
	if k.Cuboid.NumDims() != w.nd {
		w.dims(k.Cuboid.NumDims())
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

func (w *snapWriter) cells(cells []core.Cell) {
	w.count(len(cells))
	for _, c := range cells {
		w.key(c.Key)
		w.isb(c.ISB)
	}
}

// EncodeSnapshot serializes a published snapshot into the /v1/snapshot
// wire document. Encoding is deterministic: every cell list, alert, and
// frame is emitted in canonical key order.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return encodeSnapshot(s, false) }

// EncodeSuccessor serializes a published snapshot into its successor
// document: the full document without its frames section. It decodes only
// against the snapshot of the unit before, of the same origin
// (DecodeSnapshotAfter); a snapshot of no origin has no successor document.
func EncodeSuccessor(s *Snapshot) ([]byte, error) {
	if s != nil && s.Origin == 0 {
		return nil, fmt.Errorf("%w: successor of a snapshot of no origin", ErrRecord)
	}
	return encodeSnapshot(s, true)
}

func encodeSnapshot(s *Snapshot, successor bool) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrRecord)
	}
	var flags byte
	size := 1 << 10
	if successor {
		flags |= flagSuccessor
	} else {
		size += framesSize(s.Frames)
	}
	if res := s.Result; res == nil {
		flags |= flagEmpty
	} else {
		size += (res.NumOCells() + res.NumExceptions()) * 2 * pointSize
	}
	w := snapWriter{buf: append(make([]byte, 0, size), snapMagic...)}
	w.buf = append(w.buf, snapshotWireVersion, 0, flags)
	w.i64(s.Unit)
	w.i64(s.Interval.Tb)
	w.i64(s.Interval.Te)
	w.i64(s.UnitsDone)
	w.i64(int64(s.Origin))
	w.count(len(s.Chain))
	for _, lv := range s.Chain {
		w.str(lv.Name)
		w.i64(int64(lv.Multiple))
		w.i64(int64(lv.Slots))
	}

	if res := s.Result; res != nil {
		w.cells(res.OCells())
		w.cells(res.ExceptionCells())
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
		w.buf = append(w.buf, byte(a.Kind))
		w.key(a.Cell)
	}

	if !successor {
		w.frames(s.Frames)
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
	if b := r.take(isbSize); b != nil {
		return isbAt(b)
	}
	return regression.ISB{}
}

// isbAt decodes the ISB at the front of b.
func isbAt(b []byte) regression.ISB {
	return regression.ISB{
		Tb:    int64(binary.LittleEndian.Uint64(b)),
		Te:    int64(binary.LittleEndian.Uint64(b[8:])),
		Base:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Slope: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

// cells reads a cell list: nil when it is empty.
func (r *snapReader) cells() []core.Cell {
	var out []core.Cell
	if n := r.count(5*r.nd + isbSize); n > 0 {
		out = make([]core.Cell, n)
	}
	for i := range out {
		out[i].Key = r.key()
		out[i].ISB = r.isb()
	}
	return out
}

// IsSuccessorDocument reports whether data starts like a successor
// document, as opposed to a full one (or something else).
func IsSuccessorDocument(data []byte) bool {
	n := len(snapMagic)
	return len(data) >= n+3 && string(data[:n]) == snapMagic && data[n+2]&flagSuccessor != 0
}

// DecodeSnapshot parses a full /v1/snapshot document back into a
// Snapshot: DecodeSnapshotAfter with no predecessor, so a successor
// document is refused.
func DecodeSnapshot(schema *cube.Schema, data []byte) (*Snapshot, error) {
	return DecodeSnapshotAfter(schema, nil, data)
}

// DecodeSnapshotAfter parses a /v1/snapshot document back into a Snapshot. The
// schema supplies the dimension count, levels and members the coordinates
// are validated against; the returned snapshot's Result carries that
// schema, exactly as a local engine's would, and keeps the document's cell
// lists (core.NewResult). Anything but one whole well-formed document —
// truncation, trailing bytes, a count the bytes cannot back, a cell
// outside the schema, result cells core.NewResult refuses (out of order,
// repeated, off their layer, an exception under no o-cell of the
// document), an alert of an unknown kind or on a cell that is not one of
// the document's o-cells (so none in an empty unit), alerts out of
// canonical order or repeated, an invalid level chain, a frame that fails checkFrame
// or is not a state of the chain (tilt.CheckState), frames out of
// coordinate order or two for one cell — is ErrRecord. Each list is
// checked as a run (core.CheckRun) once it has been read.
//
// prev is the snapshot the reader holds, or nil. A full document stands
// alone and ignores it. A successor document applies to prev only — the
// snapshot of the unit before, of the document's origin, level chain and
// unit length — and its frames are prev's pushed by the unit
// (AdvanceFrames); a successor to anything else, or to nothing, is
// ErrRecord. prev reads as before, but a record takes one successor
// (tilt.UnitFrameState.Push): a reader that keeps the result must not
// decode a second successor of the same prev.
func DecodeSnapshotAfter(schema *cube.Schema, prev *Snapshot, data []byte) (*Snapshot, error) {
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
	if flags&^(flagEmpty|flagSuccessor) != 0 {
		return nil, fmt.Errorf("%w: snapshot document flags %#x", ErrRecord, flags)
	}
	for d := 0; d < r.nd; d++ {
		h := schema.Dims[d].Hierarchy
		r.card[d] = make([]int, h.Levels()+1)
		for l := range r.card[d] {
			r.card[d][l] = h.Cardinality(l)
		}
	}

	s := &Snapshot{Unit: r.i64()}
	s.Interval.Tb = r.i64()
	s.Interval.Te = r.i64()
	s.UnitsDone = r.i64()
	s.Origin = uint64(r.i64())
	s.Chain = make([]tilt.Level, r.count(4+8+8))
	for i := range s.Chain {
		s.Chain[i] = tilt.Level{Name: r.str(), Multiple: int(r.i64()), Slots: int(r.i64())}
	}
	// A failed chain ends the reads, so no frame meets it below.
	if _, err := tilt.NewUnitFrame(s.Chain); err != nil && r.err == nil {
		r.fail("level chain: %v", err)
	}

	if flags&flagEmpty == 0 {
		oCells, exceptions := r.cells(), r.cells()
		var st core.Stats
		st.Algorithm = r.str()
		st.Tuples, st.TreeNodes, st.TreeLeaves, st.CuboidsComputed = int(r.i64()), int(r.i64()), int(r.i64()), int(r.i64())
		st.CellsComputed, st.CellsRetained, st.PeakScratchCells = r.i64(), r.i64(), r.i64()
		st.BytesRetained, st.PeakBytes = r.i64(), r.i64()
		st.BuildTime, st.CubeTime = time.Duration(r.i64()), time.Duration(r.i64())
		if r.err == nil {
			var err error
			if s.Result, err = core.NewResult(schema, oCells, exceptions, st); err != nil {
				r.fail("%v", err)
			}
		}
	}

	if n := r.count(1 + 5*r.nd); n > 0 { // kind · key
		s.Alerts = make([]Alert, n)
	}
	for i := range s.Alerts {
		a := &s.Alerts[i]
		if b := r.take(1); b != nil {
			a.Kind = AlertKind(b[0])
		}
		a.Unit, a.Cell = s.Unit, r.key()
		var onOCell bool
		a.ISB, onOCell = s.Result.OCell(a.Cell)
		switch {
		case a.Kind != SlopeException && a.Kind != SlopeChange:
			r.fail("alert of unknown kind %d", a.Kind)
		case !onOCell:
			r.fail("alert on cell %v, not an o-cell of the document", a.Cell.Members[:r.nd])
		}
	}
	if i := core.CheckRun(s.Alerts, compareAlerts); i >= 0 {
		r.fail("alert for cell %v out of order or repeated", s.Alerts[i].Cell.Members[:r.nd])
	}

	if flags&flagSuccessor == 0 {
		s.Frames = r.frames()
	}
	for i := range s.Frames {
		f := &s.Frames[i]
		if err := checkFrame(schema, f, s.Unit+1, s.Interval.Te+1, s.Interval.Len()); err != nil {
			r.fail("%v", err)
		} else if err := tilt.CheckState(s.Chain, &f.Frame); err != nil {
			r.fail("tilt frame for o-cell %v: %v", f.Members, err)
		}
	}
	if i := core.CheckRun(s.Frames, compareCellFrames); i >= 0 {
		r.fail("tilt frame for o-cell %v out of order or repeated", s.Frames[i].Members)
	}
	if len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	// Only a whole document pushes prev's records.
	if flags&flagSuccessor != 0 && r.err == nil {
		switch {
		case prev == nil:
			r.fail("successor document with no predecessor")
		case s.Origin == 0 || s.Origin != prev.Origin:
			r.fail("successor of origin %#x to a predecessor of origin %#x", s.Origin, prev.Origin)
		case s.Unit != prev.Unit+1 || s.UnitsDone != prev.UnitsDone+1 || s.Interval.Tb != prev.Interval.Te+1 || s.Interval.Len() != prev.Interval.Len():
			r.fail("successor of unit %d (%d done, %+v) to a predecessor of unit %d (%d done, %+v)",
				s.Unit, s.UnitsDone, s.Interval, prev.Unit, prev.UnitsDone, prev.Interval)
		case !slices.Equal(s.Chain, prev.Chain):
			r.fail("successor to a predecessor of another level chain")
		default:
			var err error
			if s.Frames, err = AdvanceFrames(prev.Frames, s.Result, s.Unit, s.Interval, s.Chain); err != nil {
				r.fail("%v", err)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// MergeSnapshots combines partition snapshots of the same closed unit into
// one: the engine's shards' at every close (advanceTo), and the cluster
// nodes' into the cluster-wide view — one merge for both. The parts'
// results are disjoint by the partition invariant and become the parts of
// one result (core.Merge), and their alert lists (canonical as published)
// and frame lists (in coordinate order) merge into one list each. Every
// snapshot must describe the same unit under the same level chain;
// mismatched units mean the gather tier fetched without aligning
// watermarks first. Parts that share an o-cell or a frame are not
// disjoint — one node's snapshot twice, say — and are refused.
func MergeSnapshots(schema *cube.Schema, snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots to merge", ErrRecord)
	}
	first := snaps[0]
	results := make([]*core.Result, len(snaps))
	alerts := make([][]Alert, len(snaps))
	frames := make([][]CellFrame, len(snaps))
	for i, s := range snaps {
		results[i], alerts[i], frames[i] = s.Result, s.Alerts, s.Frames
		if s.Unit != first.Unit || s.UnitsDone != first.UnitsDone {
			return nil, fmt.Errorf("%w: snapshot units diverge (%d/%d done vs %d/%d done)",
				ErrRecord, s.Unit, s.UnitsDone, first.Unit, first.UnitsDone)
		}
		if s.Interval != first.Interval {
			return nil, fmt.Errorf("%w: snapshot intervals diverge at unit %d", ErrRecord, s.Unit)
		}
		if !slices.Equal(s.Chain, first.Chain) {
			return nil, fmt.Errorf("%w: snapshot level chains diverge at unit %d", ErrRecord, s.Unit)
		}
	}
	res, err := core.Merge(schema, results)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	out := &Snapshot{Unit: first.Unit, Interval: first.Interval, UnitsDone: first.UnitsDone, Result: res, Chain: first.Chain}
	// Alerts lie on their part's o-cells, which core.Merge found disjoint.
	out.Alerts, _ = core.MergeRuns(nil, alerts, compareAlerts)
	var repeat int
	if out.Frames, repeat = core.MergeRuns(nil, frames, compareCellFrames); repeat >= 0 {
		return nil, fmt.Errorf("%w: parts share the frame of o-cell %v", ErrRecord, out.Frames[repeat].Members)
	}
	return out, nil
}
