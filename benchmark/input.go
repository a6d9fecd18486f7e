package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/cube"
	"repro/internal/gen"
	"repro/internal/wire"
)

// cycleUnits is how many units of distinct per-cell slopes an input holds
// before the values repeat. The cycle keeps consecutive units different
// (trend, forecast and change queries have something to read) while the
// whole input stays a few megabytes built once in set-up.
const cycleUnits = 4

// input is one workload's seeded record stream, held as templates: the
// active cells' member columns for one unit in tick-major order, and one
// cycle of values. Every record of the stream is (tick, cell members,
// values[tick-in-cycle][cell]); the feeder only stamps ticks and re-frames.
type input struct {
	schema       *cube.Schema
	dims         int
	cells        int // active m-layer cells, all reporting every tick
	ticksPerUnit int
	// oCell is the o-layer ancestor of the first active cell: a cell the
	// per-cell query kinds can always address.
	oCell []int32
	// unitCols[d] holds dimension d's member for every record of one unit
	// (ticksPerUnit × cells entries, tick-major).
	unitCols [][]int32
	// values holds cycleUnits units of measures in the same order.
	values []float64
}

// unitRecords is the record count of one unit.
func (in *input) unitRecords() int { return in.cells * in.ticksPerUnit }

// newInput draws the workload's cells and series from seed. Equal seeds
// give identical inputs; the program under test never sees the seed.
func newInput(spec string, cells, ticksPerUnit int, slopeSigma float64, seed int64) (*input, error) {
	sp, err := gen.ParseSpec(spec + "T1")
	if err != nil {
		return nil, err
	}
	schema, err := sp.StreamSchema()
	if err != nil {
		return nil, err
	}
	cards := make([]int, sp.Dims)
	total := 1
	for d, dim := range schema.Dims {
		cards[d] = dim.Hierarchy.Cardinality(dim.MLevel)
		total *= cards[d]
	}
	if cells <= 0 || cells > total {
		cells = total
	}
	r := rand.New(rand.NewSource(seed))
	// A seeded sample of distinct m-cells, in index order so the stream
	// order does not depend on the draw order.
	picked := r.Perm(total)[:cells]
	sort.Ints(picked)

	in := &input{schema: schema, dims: sp.Dims, cells: cells, ticksPerUnit: ticksPerUnit}
	members := make([][]int32, sp.Dims)
	for d := range members {
		members[d] = make([]int32, cells)
	}
	for i, idx := range picked {
		for d := 0; d < sp.Dims; d++ {
			members[d][i] = int32(idx % cards[d])
			idx /= cards[d]
		}
	}
	idx := cube.NewAncestorIndex(schema)
	in.oCell = make([]int32, sp.Dims)
	for d, dim := range schema.Dims {
		in.oCell[d] = idx.Ancestor(d, dim.MLevel, dim.OLevel, members[d][0])
	}
	in.unitCols = make([][]int32, sp.Dims)
	for d := range in.unitCols {
		col := make([]int32, 0, in.unitRecords())
		for t := 0; t < ticksPerUnit; t++ {
			col = append(col, members[d]...)
		}
		in.unitCols[d] = col
	}

	// Per cell a base level, and per cycle unit a slope of the workload's
	// sigma against the exception threshold of 1, with every fiftieth cell
	// carrying a trend event twenty times that (the shape gen.Generate
	// gives batch datasets, with the event count fixed so that seeds differ
	// in which cells trend, not in how much work a unit is): sigma sets how
	// many cells a unit retains.
	in.values = make([]float64, cycleUnits*in.unitRecords())
	base := make([]float64, cells)
	for i := range base {
		base[i] = math.Abs(r.NormFloat64()) * 5
	}
	slope := make([]float64, cells)
	for u := 0; u < cycleUnits; u++ {
		for i := range slope {
			slope[i] = r.NormFloat64() * slopeSigma
			if (i+u)%50 == 0 {
				slope[i] *= 20
			}
		}
		for t := 0; t < ticksPerUnit; t++ {
			row := in.values[(u*ticksPerUnit+t)*cells:][:cells]
			for i := range row {
				row[i] = base[i] + slope[i]*float64(t) + r.NormFloat64()*0.5
			}
		}
	}
	return in, nil
}

// frame shapes b as records [lo,hi) of the given unit. Columns and values
// alias the templates (consumers only read them); ticks are stamped into
// b's own storage.
func (in *input) frame(b *wire.Batch, unit int64, lo, hi int) {
	if cap(b.Cols) < in.dims {
		b.Cols = make([][]int32, in.dims)
	}
	b.Cols = b.Cols[:in.dims]
	for d := range b.Cols {
		b.Cols[d] = in.unitCols[d][lo:hi]
	}
	off := int(unit%cycleUnits) * in.unitRecords()
	b.Values = in.values[off+lo : off+hi]
	b.Ticks = b.Ticks[:0]
	first := unit * int64(in.ticksPerUnit)
	for i := lo; i < hi; i++ {
		b.Ticks = append(b.Ticks, first+int64(i/in.cells))
	}
}

// cuts returns the frame boundaries of one unit: frames hold at most
// wire.DefaultBatchRecords records and, when perTick is set (a paced
// source flushes every tick), never span two ticks.
func (in *input) cuts(perTick bool) []int {
	group := in.unitRecords()
	if perTick {
		group = in.cells
	}
	cuts := []int{0}
	for g := 0; g < in.unitRecords(); g += group {
		for lo := g; lo < g+group; lo += wire.DefaultBatchRecords {
			cuts = append(cuts, min(lo+wire.DefaultBatchRecords, g+group))
		}
	}
	return cuts
}

// encoder turns template frames into wire bytes with reused buffers.
type encoder struct {
	in      *input
	batch   wire.Batch
	payload []byte
	out     []byte
}

// header returns the stream header for the input's dimension count.
func (e *encoder) header() []byte { return wire.EncodeHeader(nil, e.in.dims) }

// frame encodes records [lo,hi) of unit as one wire frame. The returned
// bytes are valid until the next call.
func (e *encoder) frame(unit int64, lo, hi int) []byte {
	e.in.frame(&e.batch, unit, lo, hi)
	e.payload = wire.AppendBatch(e.payload[:0], &e.batch)
	e.out = wire.EncodeFrame(e.out[:0], e.payload)
	return e.out
}

// advance encodes the control frame that closes every unit before unit.
func (e *encoder) advance(unit int64) []byte {
	e.payload = wire.AppendControl(e.payload[:0], wire.Control{Op: wire.ControlAdvance, Unit: unit})
	e.out = wire.EncodeFrame(e.out[:0], e.payload)
	return e.out
}
