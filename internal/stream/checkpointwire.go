package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
)

// This file is the checkpoint codec: the binary document a node writes to
// its checkpoint file after every closed unit (internal/persist puts it
// there) and reads back at start-up. It sits beside the snapshot codec and
// on its primitives (snapWriter, snapReader): the same four numbers per
// regression, the same fixed-size records behind counts, little-endian
// integers and floats as their IEEE-754 bits.
//
//	header   "RCCP" · version u8 · dims u8 · unit · unitsDone · walSeq
//	schema   dims × (name · mLevel · oLevel · card)
//	cells    u32 × (members[dims]i32 · tb · n · sumZ · sumTZ)
//	frames   u32 × (key · base · unitTicks · nextTb · pushed · u32 × (completed · u32 × point))
//	trailer  crc32c u32 of every byte before it
//
//	key = levels[dims]u8 · members[dims]i32     point = unit i64 · ISB     ISB = Tb,Te i64 · Base,Slope f64
//	strings = u32 length · bytes     every other scalar is an i64
//
// cells are the open unit's m-layer accumulators, frames every o-cell's
// tilt frame level by level, finest first; both lists are in coordinate
// order, as Engine.Checkpoint cuts them, so equal state is equal bytes at
// any shard count. The document is self-describing (no schema is needed to
// read it; Engine.Restore checks it against one).
//
// Every count is checked against the bytes that remain before anything is
// allocated for it, and the trailer tells a torn or bit-flipped file from a
// whole one.

const (
	checkpointMagic = "RCCP"
	// CheckpointWireVersion is the checkpoint document's version. It
	// continues the numbering of the JSON envelopes (1–4) persist still
	// reads.
	CheckpointWireVersion = 5

	cellStateSize = 4 * 8 // an accumulator's tb, n, sumZ, sumTZ
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// members writes one member tuple, which must be as wide as the document.
func (w *snapWriter) members(ms []int32) {
	if len(ms) != w.nd {
		w.dims(len(ms))
	}
	for _, m := range ms {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(m))
	}
}

// coord writes a checkpoint cell coordinate in the key layout.
func (w *snapWriter) coord(levels []int, members []int32) {
	w.dims(len(levels))
	for _, l := range levels {
		if (l < 0 || l > math.MaxUint8) && w.err == nil {
			w.err = fmt.Errorf("%w: frame cell at level %d", ErrRecord, l)
		}
		w.buf = append(w.buf, byte(l))
	}
	w.members(members)
}

// framesSize is the encoded size of a frames section, for a writer to size
// its buffer once.
func framesSize(frames []CellFrame) int {
	n := 4
	for i := range frames {
		n += 5*len(frames[i].Levels) + 4*8 + 4
		for _, lv := range frames[i].Frame.Levels {
			n += 8 + 4 + len(lv.Slots)*pointSize
		}
	}
	return n
}

// frames writes a frames section: one record per frame, in list order.
func (w *snapWriter) frames(frames []CellFrame) {
	w.count(len(frames))
	for i := range frames {
		f := &frames[i]
		w.coord(f.Levels, f.Members)
		w.i64(f.Base)
		w.i64(f.Frame.UnitTicks)
		w.i64(f.Frame.NextTb)
		w.i64(f.Frame.Pushed)
		w.count(len(f.Frame.Levels))
		for _, lv := range f.Frame.Levels {
			w.i64(lv.Next)
			w.count(len(lv.Slots))
			for _, sl := range lv.Slots {
				w.i64(sl.Unit)
				w.isb(sl.ISB)
			}
		}
	}
}

// AppendCheckpoint appends the checkpoint document of cp to dst. Encoding
// is deterministic — cp's lists are written in the order they are in, which
// for every engine's and every merge's checkpoint is coordinate order — so
// equal state gives equal bytes.
func AppendCheckpoint(dst []byte, cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return dst, fmt.Errorf("%w: nil checkpoint", ErrRecord)
	}
	nd := len(cp.Schema)
	if nd < 1 || nd > cube.MaxDims {
		return dst, fmt.Errorf("%w: checkpoint of %d dimensions", ErrRecord, nd)
	}
	start := len(dst)
	w := snapWriter{buf: append(dst, checkpointMagic...), nd: nd}
	w.buf = append(w.buf, CheckpointWireVersion, byte(nd))
	w.i64(cp.Unit)
	w.i64(cp.UnitsDone)
	w.i64(cp.WALSeq)
	for _, d := range cp.Schema {
		w.str(d.Name)
		w.i64(int64(d.MLevel))
		w.i64(int64(d.OLevel))
		w.i64(int64(d.Card))
	}

	w.count(len(cp.Cells))
	for i := range cp.Cells {
		c := &cp.Cells[i]
		w.members(c.Members)
		w.i64(c.Acc.Tb)
		w.i64(c.Acc.N)
		w.f64(c.Acc.SumZ)
		w.f64(c.Acc.SumTZ)
	}

	w.frames(cp.Tilt)
	if w.err != nil {
		return dst, w.err
	}
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf[start:], castagnoli)), nil
}

// IsCheckpointDocument reports whether data starts like a checkpoint
// document of any version, as opposed to the JSON envelopes before it.
func IsCheckpointDocument(data []byte) bool {
	return len(data) >= len(checkpointMagic) && string(data[:len(checkpointMagic)]) == checkpointMagic
}

// DecodeCheckpoint parses a checkpoint document. Anything but one whole
// well-formed document of this version — a foreign or future header,
// truncation, trailing bytes, a count the bytes cannot back, a checksum
// that does not match — is ErrRecord naming the offset and what was wrong
// there. What the document says is checked where it is used
// (Engine.Restore).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := snapReader{doc: "checkpoint", size: len(data), data: data}
	head := r.take(len(checkpointMagic) + 2)
	if !IsCheckpointDocument(head) {
		return nil, fmt.Errorf("%w: not a checkpoint document", ErrRecord)
	}
	if version := head[len(checkpointMagic)]; version != CheckpointWireVersion {
		return nil, fmt.Errorf("%w: checkpoint document at offset %d: version %d, want %d",
			ErrRecord, len(checkpointMagic), version, CheckpointWireVersion)
	}
	r.nd = int(head[len(checkpointMagic)+1])
	if r.nd < 1 || r.nd > cube.MaxDims {
		return nil, fmt.Errorf("%w: checkpoint document at offset %d: %d dimensions",
			ErrRecord, len(checkpointMagic)+1, r.nd)
	}
	nd := r.nd

	cp := &Checkpoint{Unit: r.i64(), UnitsDone: r.i64(), WALSeq: r.i64()}
	cp.Schema = make([]DimensionShape, nd)
	for d := range cp.Schema {
		cp.Schema[d] = DimensionShape{Name: r.str(), MLevel: int(r.i64()), OLevel: int(r.i64()), Card: int(r.i64())}
	}

	if n := r.count(4*nd + cellStateSize); n > 0 {
		cp.Cells = make([]CellState, n)
		members := make([]int32, n*nd)
		for i := range cp.Cells {
			c := &cp.Cells[i]
			c.Members, members = members[:nd:nd], members[nd:]
			r.members(c.Members)
			c.Acc = regression.AccumulatorState{Tb: r.i64(), N: r.i64(), SumZ: r.f64(), SumTZ: r.f64()}
		}
	}

	cp.Tilt = r.frames()

	// What is left must be exactly the trailer. It is checked last, so that
	// a torn file reads as truncated at the offset where it ends.
	body := len(data) - len(r.data)
	sum := r.take(4)
	if sum != nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	if r.err != nil {
		return nil, r.err
	}
	if got, want := crc32.Checksum(data[:body], castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return nil, fmt.Errorf("%w: checkpoint document at offset %d: crc32c %#08x but the contents sum to %#08x: the file is torn or corrupted",
			ErrRecord, body, want, got)
	}
	return cp, nil
}

// frames reads a frames section (snapWriter.frames). What the records say
// is for their reader to check (checkFrame, tilt.CheckState).
func (r *snapReader) frames() []CellFrame {
	const levelSize = 8 + 4
	nd := r.nd
	n := r.count(5*nd + 4*8 + 4)
	if n == 0 {
		return nil
	}
	frames := make([]CellFrame, n)
	levels, members := make([]int, n*nd), make([]int32, n*nd)
	for i := range frames {
		f := &frames[i]
		f.Levels, levels = levels[:nd:nd], levels[nd:]
		f.Members, members = members[:nd:nd], members[nd:]
		if b := r.take(nd); b != nil {
			for d, l := range b {
				f.Levels[d] = int(l)
			}
		}
		r.members(f.Members)
		f.Base = r.i64()
		f.Frame = tilt.UnitFrameState{UnitTicks: r.i64(), NextTb: r.i64(), Pushed: r.i64()}
		if nl := r.count(levelSize); nl > 0 {
			f.Frame.Levels = make([]tilt.LevelStateRec, nl)
		}
		for j := range f.Frame.Levels {
			lv := &f.Frame.Levels[j]
			lv.Next = r.i64()
			if ns := r.count(pointSize); ns > 0 {
				lv.Slots = make([]tilt.Slot, ns)
				b := r.take(ns * pointSize) // count has checked that the bytes remain
				for x := range lv.Slots {
					p := b[x*pointSize:]
					lv.Slots[x] = tilt.Slot{Unit: int64(binary.LittleEndian.Uint64(p)), ISB: isbAt(p[8:])}
				}
			}
		}
	}
	return frames
}

// members reads one member tuple into dst.
func (r *snapReader) members(dst []int32) {
	if b := r.take(4 * len(dst)); b != nil {
		for d := range dst {
			dst[d] = int32(binary.LittleEndian.Uint32(b[4*d:]))
		}
	}
}

func (r *snapReader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }
