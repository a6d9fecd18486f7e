package stream

import (
	"fmt"
	"math/bits"

	"repro/internal/cube"
	"repro/internal/wire"
)

// Partitioner is the cluster-wide partition function: it maps records to
// one of N partitions by hashing the o-layer ancestor tuple of their
// m-layer members. ShardedEngine routes records to shard goroutines with
// it, and the multi-node router (internal/cluster) routes whole columnar
// batches to ingest nodes with the very same instance type — one
// implementation, so in-process shards and cross-process nodes partition
// bit-for-bit identically and per-partition state is always mergeable
// back into the single-engine result.
//
// The hash is a 64-bit FNV-style fold of the o-member tuple plus a
// splitmix64 avalanche, reduced to a partition with a multiply-high
// instead of a modulo — fixed and stable (checkpoints repartition
// identically on every run), and far cheaper than byte-wise hashing on
// the per-record path. A dense m-layer's batches route through a cell →
// partition table filled from Route, so both agree by construction.
type Partitioner struct {
	n     int
	nDims int
	// idx resolves each record's o-layer ancestor with precomputed
	// tables; mLevels/oLevels cache the per-dimension levels so routing
	// does no interface calls, and anc[d] flattens the m→o mapping into
	// one dense slice per dimension (nil for oversized hierarchies, which
	// route through idx instead).
	idx     *cube.AncestorIndex
	mLevels [cube.MaxDims]int
	oLevels [cube.MaxDims]int
	anc     [cube.MaxDims][]int32
	names   [cube.MaxDims]string
	// layout is the Engine's m-cell index (its cards bound every member);
	// table[c] is m-cell c's partition, nil past denseCells.
	layout cellLayout
	table  []int32
}

// NewPartitioner builds the o-ancestor partition function for a schema
// over n partitions (shards or cluster nodes); n must be ≥ 1.
//
// Parallelism is bounded by the number of distinct o-layer cells: a
// schema whose o-layer is the apex cuboid has a single partition.
func NewPartitioner(schema *cube.Schema, n int) (*Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d partitions", ErrConfig, n)
	}
	p := &Partitioner{n: n, nDims: len(schema.Dims), idx: cube.NewAncestorIndex(schema), layout: newCellLayout(schema)}
	for d, dim := range schema.Dims {
		p.mLevels[d] = dim.MLevel
		p.oLevels[d] = dim.OLevel
		p.names[d] = dim.Name
		// Flatten routing to one table lookup per dimension: reuse the
		// index's own dense table when it has one, otherwise build one
		// (fanout/identity dimensions); skip it (and fall back to the
		// index per record) past 4M members.
		if tab := p.idx.TableFor(d, dim.MLevel, dim.OLevel); tab != nil {
			p.anc[d] = tab
		} else if card := p.layout.cards[d]; card <= 1<<22 {
			tab := make([]int32, card)
			for m := range tab {
				tab[m] = p.idx.Ancestor(d, dim.MLevel, dim.OLevel, int32(m))
			}
			p.anc[d] = tab
		}
	}
	if p.layout.size > 0 {
		p.table = make([]int32, p.layout.size)
		members := make([]int32, p.nDims)
		for c := range p.table {
			p.layout.decode(int32(c), members)
			sid, _ := p.Route(members) // decoded members are in range
			p.table[c] = int32(sid)
		}
	}
	return p, nil
}

// Partitions returns the partition count.
func (p *Partitioner) Partitions() int { return p.n }

// Hash maps an o-level member tuple to its partition: one 64-bit
// FNV-style fold per dimension, a splitmix64 avalanche, and a
// multiply-high range reduction.
func (p *Partitioner) Hash(members *[cube.MaxDims]int32) int {
	h := uint64(1469598103934665603)
	for d := 0; d < p.nDims; d++ {
		h = (h ^ uint64(uint32(members[d]))) * 1099511628211
	}
	return int(reduce(h, uint64(p.n)))
}

// reduce finishes a folded hash: the splitmix64 avalanche, then the
// multiply-high reduction to [0,n).
func reduce(h, n uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	sid, _ := bits.Mul64(h, n)
	return sid
}

// rangeErr reports member m as outside dimension d's m-layer.
func (p *Partitioner) rangeErr(d int, m int32) error {
	return fmt.Errorf("%w: member %d of dimension %s outside [0,%d)", ErrRecord, m, p.names[d], p.layout.cards[d])
}

// Route maps an m-layer member tuple to its partition by resolving the
// o-layer ancestors first, range-checking every member.
func (p *Partitioner) Route(members []int32) (int, error) {
	var o [cube.MaxDims]int32
	for d := 0; d < p.nDims; d++ {
		if uint32(members[d]) >= uint32(p.layout.cards[d]) {
			return 0, p.rangeErr(d, members[d])
		}
		if tab := p.anc[d]; tab != nil {
			o[d] = tab[members[d]]
		} else {
			o[d] = p.idx.Ancestor(d, p.mLevels[d], p.oLevels[d], members[d])
		}
	}
	return p.Hash(&o), nil
}

// FoldColumns assigns records [lo,hi) of a columnar batch to partitions,
// writing the partition ids into hb (whose length must be hi-lo): through
// the cell table when there is one, else by the ancestor fold, column-wise
// in Hash's order and constants. Either way batch and record routing agree
// bit for bit. An out-of-range member fails the batch; hb is then garbage.
func (p *Partitioner) FoldColumns(b *wire.Batch, lo, hi int, hb []uint64) error {
	if p.table != nil {
		if err := cellColumn(p, b, lo, hi, hb); err != nil {
			return err
		}
		for i, c := range hb {
			hb[i] = uint64(p.table[c])
		}
		return nil
	}
	if err := p.fold(b, lo, hi, hb); err != nil {
		return err
	}
	n := uint64(p.n)
	for i, h := range hb {
		hb[i] = reduce(h, n)
	}
	return nil
}

// cellColumn writes the m-cell index of records [lo,hi) into out, checking
// members in fold's order: the error names the same first bad member.
func cellColumn[T int32 | uint64](p *Partitioner, b *wire.Batch, lo, hi int, out []T) error {
	clear(out)
	for d := 0; d < p.nDims; d++ {
		card, stride := p.layout.cards[d], T(p.layout.strides[d])
		for i, m := range b.Cols[d][lo:hi] {
			if uint32(m) >= uint32(card) {
				return p.rangeErr(d, m)
			}
			out[i] += T(m) * stride
		}
	}
	return nil
}

// fold is the column-wise half of the hash path: hb[i] becomes record
// lo+i's o-ancestor fold, not yet reduced to a partition.
func (p *Partitioner) fold(b *wire.Batch, lo, hi int, hb []uint64) error {
	for i := range hb {
		hb[i] = 1469598103934665603
	}
	for d := 0; d < p.nDims; d++ {
		col := b.Cols[d][lo:hi]
		card := p.layout.cards[d]
		if tab := p.anc[d]; tab != nil {
			for i, m := range col {
				if m < 0 || m >= card {
					return p.rangeErr(d, m)
				}
				hb[i] = (hb[i] ^ uint64(uint32(tab[m]))) * 1099511628211
			}
			continue
		}
		for i, m := range col {
			if m < 0 || m >= card {
				return p.rangeErr(d, m)
			}
			o := p.idx.Ancestor(d, p.mLevels[d], p.oLevels[d], m)
			hb[i] = (hb[i] ^ uint64(uint32(o))) * 1099511628211
		}
	}
	return nil
}

// Select assigns records [lo,hi) to partitions as FoldColumns does and
// appends each record's position — counting up from base for record lo —
// to its partition's list in sel; cells receives each record's m-cell index
// (cell table) or hb is the fold scratch (none), each of length hi-lo. A
// batch with an out-of-range member fails before any list is touched.
func (p *Partitioner) Select(b *wire.Batch, lo, hi int, cells []int32, hb []uint64, base int32, sel [][]int32) error {
	if p.table != nil {
		if err := cellColumn(p, b, lo, hi, cells); err != nil {
			return err
		}
		for i, c := range cells {
			sid := p.table[c]
			sel[sid] = append(sel[sid], base+int32(i))
		}
		return nil
	}
	if err := p.fold(b, lo, hi, hb); err != nil {
		return err
	}
	n := uint64(p.n)
	for i, h := range hb {
		sid := reduce(h, n)
		sel[sid] = append(sel[sid], base+int32(i))
	}
	return nil
}
