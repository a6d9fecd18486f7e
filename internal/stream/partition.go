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
// the per-record path.
type Partitioner struct {
	n     int
	nDims int
	// idx resolves each record's o-layer ancestor with precomputed
	// tables; mLevels/oLevels/cards cache the per-dimension bounds so
	// routing does no interface calls, and anc[d] flattens the m→o
	// mapping into one dense slice per dimension (nil for oversized
	// hierarchies, which route through idx instead).
	idx     *cube.AncestorIndex
	mLevels [cube.MaxDims]int
	oLevels [cube.MaxDims]int
	cards   [cube.MaxDims]int
	anc     [cube.MaxDims][]int32
	names   [cube.MaxDims]string
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
	p := &Partitioner{n: n, nDims: len(schema.Dims), idx: cube.NewAncestorIndex(schema)}
	for d, dim := range schema.Dims {
		p.mLevels[d] = dim.MLevel
		p.oLevels[d] = dim.OLevel
		p.cards[d] = dim.Hierarchy.Cardinality(dim.MLevel)
		p.names[d] = dim.Name
		// Flatten routing to one table lookup per dimension: reuse the
		// index's own dense table when it has one, otherwise build one
		// (fanout/identity dimensions); skip it (and fall back to the
		// index per record) past 4M members.
		if tab := p.idx.TableFor(d, dim.MLevel, dim.OLevel); tab != nil {
			p.anc[d] = tab
		} else if p.cards[d] <= 1<<22 {
			tab := make([]int32, p.cards[d])
			for m := range tab {
				tab[m] = p.idx.Ancestor(d, dim.MLevel, dim.OLevel, int32(m))
			}
			p.anc[d] = tab
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
	return fmt.Errorf("%w: member %d of dimension %s outside [0,%d)", ErrRecord, m, p.names[d], p.cards[d])
}

// Route maps an m-layer member tuple to its partition by resolving the
// o-layer ancestors first, range-checking every member.
func (p *Partitioner) Route(members []int32) (int, error) {
	var o [cube.MaxDims]int32
	for d := 0; d < p.nDims; d++ {
		if members[d] < 0 || int(members[d]) >= p.cards[d] {
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
// writing the partition ids into hb (whose length must be hi-lo). The
// ancestor fold runs column-wise — one dense-table pass per dimension —
// and the fold order and constants match Hash exactly, so batch and
// record routing agree bit for bit. A batch with an out-of-range member
// fails before any id is meaningful.
func (p *Partitioner) FoldColumns(b *wire.Batch, lo, hi int, hb []uint64) error {
	if err := p.fold(b, lo, hi, hb); err != nil {
		return err
	}
	n := uint64(p.n)
	for i, h := range hb {
		hb[i] = reduce(h, n)
	}
	return nil
}

// fold is the column-wise half of FoldColumns: hb[i] becomes record lo+i's
// o-ancestor fold, not yet reduced to a partition.
func (p *Partitioner) fold(b *wire.Batch, lo, hi int, hb []uint64) error {
	for i := range hb {
		hb[i] = 1469598103934665603
	}
	for d := 0; d < p.nDims; d++ {
		col := b.Cols[d][lo:hi]
		card := int32(p.cards[d])
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

// Select assigns records [lo,hi) to partitions as FoldColumns does, through
// the scratch hb (length hi-lo), and appends each record's position —
// counting up from base for record lo — to its partition's list in sel. A
// batch with an out-of-range member fails before any list is touched.
func (p *Partitioner) Select(b *wire.Batch, lo, hi int, hb []uint64, base int32, sel [][]int32) error {
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
