package stream

import (
	"fmt"
	"math/bits"

	"repro/internal/cube"
	"repro/internal/wire"
)

// Partitioner is the cluster-wide partition function: it maps records to
// one of N partitions by hashing the o-layer ancestor tuple of their
// m-layer members. An Engine assigns each m-cell to the shard whose slab
// holds it and whose unit close cubes it with it, and the
// multi-node router (internal/cluster) routes whole columnar batches to
// ingest nodes with the very same instance type — one
// implementation, so in-process shards and cross-process nodes partition
// bit-for-bit identically and per-partition state is always mergeable
// back into the single-engine result.
//
// The hash is a 64-bit FNV-style fold of the o-member tuple plus a
// splitmix64 avalanche, reduced to a partition with a multiply-high
// instead of a modulo — fixed and stable (checkpoints repartition
// identically on every run). Batches route through cell dictionaries that
// run Route once per cell, so batch and record routing agree by
// construction. A Partitioner holds no state past construction and is safe
// for concurrent use.
type Partitioner struct {
	n int
	// anc[d] lifts a dimension-d m-member to its o-layer ancestor.
	anc [cube.MaxDims]cube.Resolver
	// layout codes and range-checks m-cells.
	layout cellLayout
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
	layout, err := newCellLayout(schema)
	if err != nil {
		return nil, err
	}
	p := &Partitioner{n: n, layout: layout}
	idx := cube.NewAncestorIndex(schema)
	for d, dim := range schema.Dims {
		p.anc[d] = idx.Resolver(d, dim.MLevel, dim.OLevel)
	}
	return p, nil
}

// Hash maps an o-level member tuple to its partition: one 64-bit
// FNV-style fold per dimension, a splitmix64 avalanche, and a
// multiply-high range reduction.
func (p *Partitioner) Hash(members *[cube.MaxDims]int32) int {
	h := uint64(1469598103934665603)
	for d := 0; d < p.layout.nd; d++ {
		h = (h ^ uint64(uint32(members[d]))) * 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	sid, _ := bits.Mul64(h, uint64(p.n))
	return int(sid)
}

// Route maps an m-layer member tuple to its partition by resolving the
// o-layer ancestors first, range-checking every member.
func (p *Partitioner) Route(members []int32) (int, error) {
	var o [cube.MaxDims]int32
	for d := 0; d < p.layout.nd; d++ {
		if uint32(members[d]) >= p.layout.cards[d] {
			return 0, p.layout.rangeErr(d, members[d])
		}
		o[d] = p.anc[d].Resolve(members[d])
	}
	return p.Hash(&o), nil
}

// FoldColumns writes the partitions of records [lo,hi) of a columnar
// batch into hb (of length hi-lo), through a cell dictionary that starts
// empty on every call, as an engine's does at every unit: over one unit's
// records it pays Route per distinct cell, as a coordinator does, and
// grows its table from empty, which a coordinator does not. An
// out-of-range member fails the batch with Route's error for the first bad
// member in dimension-major order; hb is then garbage.
func (p *Partitioner) FoldColumns(b *wire.Batch, lo, hi int, hb []uint64) error {
	d := newCellDict(&p.layout, p)
	d.buf = hb[:0] // the codes go into hb, then the partitions over them
	codes, err := d.codes(b, lo, hi)
	if err != nil {
		return err
	}
	for i, code := range codes {
		c := d.slot(code)
		if c.key == 0 {
			c = d.add(c, code)
		}
		hb[i] = uint64(c.part)
	}
	return nil
}

// CellRouter is a routing-only cell dictionary, the cluster router's: it
// hands out no ordinals, so it outlives units and a stable set of cells
// runs Route once for the stream's life. Advance empties it when it holds
// more than twice the cells the closing unit routed, so under churn it
// holds three units' cells at most. Not safe for concurrent use.
type CellRouter struct {
	dict *cellDict
	unit int32 // stamps the open unit in the ord of each cell it routes
	live int   // cells the open unit routed
}

// NewCellRouter returns an empty cell dictionary routing through p.
func NewCellRouter(p *Partitioner) *CellRouter {
	return &CellRouter{dict: newCellDict(&p.layout, p)}
}

// Select appends the position of each record in [lo,hi) of a shape-checked
// batch — counting up from base for record lo — to its partition's list in
// sel. An out-of-range member fails the batch as in FoldColumns, before
// any list is touched or any cell filed.
func (r *CellRouter) Select(b *wire.Batch, lo, hi int, base int32, sel [][]int32) error {
	codes, err := r.dict.codes(b, lo, hi)
	if err != nil {
		return err
	}
	for i, code := range codes {
		c := r.dict.slot(code)
		if c.key == 0 {
			c = r.dict.add(c, code)
			c.ord = r.unit - 1 // not yet routed in this unit
		}
		if c.ord != r.unit {
			c.ord, r.live = r.unit, r.live+1
		}
		sel[c.part] = append(sel[c.part], base+int32(i))
	}
	return nil
}

// Advance closes the open unit.
func (r *CellRouter) Advance() {
	if r.dict.n > 2*r.live {
		r.dict.reset()
	}
	r.unit, r.live = r.unit+1, 0
}
