package stream

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cube"
	"repro/internal/wire"
)

// cellLayout codes m-cells: a cell's code is its member tuple read as a
// mixed-radix number, dimension 0 most significant, in a uint64 — the key
// of every cell dictionary, and, sorted, coordinate order. An m-layer with
// more cells than a uint64 counts is ErrConfig at construction.
type cellLayout struct {
	nd      int
	cards   [cube.MaxDims]uint32 // m-layer cardinalities (capped at 2³¹: members are int32)
	strides [cube.MaxDims]uint64
	names   [cube.MaxDims]string
}

func newCellLayout(schema *cube.Schema) (cellLayout, error) {
	l := cellLayout{nd: len(schema.Dims)}
	size := uint64(1)
	for d := l.nd - 1; d >= 0; d-- {
		dim := schema.Dims[d]
		l.cards[d] = uint32(min(int64(dim.Hierarchy.Cardinality(dim.MLevel)), 1<<31))
		l.names[d] = dim.Name
		l.strides[d] = size
		var hi uint64
		if hi, size = bits.Mul64(size, uint64(l.cards[d])); hi != 0 {
			return l, fmt.Errorf("%w: the m-layer has more cells than a 64-bit cell code holds", ErrConfig)
		}
	}
	return l, nil
}

// rangeErr reports member m as outside dimension d's m-layer: Route's error.
func (l *cellLayout) rangeErr(d int, m int32) error {
	return fmt.Errorf("%w: member %d of dimension %s outside [0,%d)", ErrRecord, m, l.names[d], l.cards[d])
}

// code returns a member tuple's code and -1, or the first dimension whose
// member is outside the m-layer (rangeErr names it). Small enough to
// inline into Ingest.
func (l *cellLayout) code(members []int32) (uint64, int) {
	var c uint64
	for d, m := range members {
		if uint32(m) >= l.cards[d] {
			return 0, d
		}
		c += uint64(m) * l.strides[d]
	}
	return c, -1
}

// decode writes the member tuple of a code into members.
func (l *cellLayout) decode(code uint64, members []int32) {
	for d := range members {
		members[d] = int32(code / l.strides[d] % uint64(l.cards[d]))
	}
}

// cellDict is the cell dictionary: an open-addressing table from m-cell
// codes to the partition Route puts each cell in and a dense ordinal there,
// handed out per partition in first-sight order. The engines empty theirs
// at every unit close, so it never holds more than one unit's active cells,
// and the ordinals index accumulator slabs sized by those cells alone.
// A CellRouter's, which needs no ordinals, outlives units (see there).
type cellDict struct {
	layout *cellLayout
	part   *Partitioner // nil: every cell is partition 0
	slots  []dictSlot   // power-of-two length, at most a quarter full
	shift  uint         // 64 − log2(len(slots))
	n      int          // cells in the dictionary
	next   []int32      // next[p] is partition p's next ordinal
	// buf is codes' scratch; runMax the longest run it held since reset.
	buf    []uint64
	runMax int
}

// dictSlot is one cell's entry; key is its code plus one, 0 when empty.
type dictSlot struct {
	key  uint64
	part int32
	ord  int32
}

func newCellDict(l *cellLayout, part *Partitioner) *cellDict {
	d := &cellDict{layout: l, part: part, next: make([]int32, 1)}
	if part != nil {
		d.next = make([]int32, part.n)
	}
	d.rehash(16)
	return d
}

// codes returns the codes of records [lo,hi) of a shape-checked batch,
// computed column by column: a member outside the m-layer fails the run,
// before any of it is looked up, with Route's error for the first bad
// member in dimension-major order.
func (d *cellDict) codes(b *wire.Batch, lo, hi int) ([]uint64, error) {
	d.runMax = max(d.runMax, hi-lo)
	out := slices.Grow(d.buf[:0], hi-lo)[:hi-lo]
	d.buf = out
	clear(out)
	for dim := 0; dim < d.layout.nd; dim++ {
		card, stride := d.layout.cards[dim], d.layout.strides[dim]
		for i, m := range b.Cols[dim][lo:hi] {
			if uint32(m) >= card {
				return nil, d.layout.rangeErr(dim, m)
			}
			out[i] += uint64(m) * stride
		}
	}
	return out, nil
}

// home is a key's first slot: a Fibonacci multiply, which places a run of
// consecutive codes one to a slot.
func (d *cellDict) home(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> d.shift
}

// slot returns code's entry, or the empty slot it would take; a caller
// meeting an empty one files the cell with add. slot is small enough to
// inline into the per-record loops, which is why there is no lookup.
func (d *cellDict) slot(code uint64) *dictSlot {
	key, mask := code+1, uint64(len(d.slots)-1)
	for i := d.home(key); ; i = (i + 1) & mask {
		if s := &d.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// rehash moves the cells into a new table of the given length.
func (d *cellDict) rehash(slots int) {
	old, mask := d.slots, uint64(slots-1)
	d.slots = make([]dictSlot, slots)
	d.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	for _, o := range old {
		if o.key != 0 {
			i := d.home(o.key)
			for d.slots[i].key != 0 {
				i = (i + 1) & mask
			}
			d.slots[i] = o
		}
	}
}

// add files a new cell into its empty slot s: Route picks the partition —
// once per cell, so it is the hash's by construction — and the partition's
// next ordinal becomes the cell's.
func (d *cellDict) add(s *dictSlot, code uint64) *dictSlot {
	if 4*(d.n+1) > len(d.slots) {
		d.rehash(2 * len(d.slots))
		s = d.slot(code)
	}
	p := 0
	if d.part != nil {
		var members [cube.MaxDims]int32
		d.layout.decode(code, members[:d.layout.nd])
		p, _ = d.part.Route(members[:]) // a code's members are in range
	}
	*s = dictSlot{key: code + 1, part: int32(p), ord: d.next[p]}
	d.next[p]++
	d.n++
	return s
}

// reset empties the dictionary, ordinals and all; an empty one is left
// alone. A table or scratch far larger than the cells and runs it held
// since the last reset is dropped, so one bursty unit does not pin its peak
// for the engine's life.
func (d *cellDict) reset() {
	if d.n == 0 {
		return
	}
	if slots := max(16, 1<<bits.Len(uint(4*d.n))); len(d.slots) > 4*slots {
		d.slots = nil
		d.rehash(slots)
	} else {
		clear(d.slots)
	}
	if cap(d.buf) > 4*d.runMax+1024 {
		d.buf = nil
	}
	d.n, d.runMax = 0, 0
	clear(d.next)
}
