package core

import "repro/internal/cube"

// SupportersByOCell buckets a result's retained exception cells by the
// o-layer cell each rolls up to — the "exception supporters" an analyst
// drills into from an alerting o-cell (§4.3). It is one pass over the
// retained cells: they are visited in cube.CompareKeys order, so every
// bucket is born sorted, and consecutive cells share a cuboid, so the
// roll-up to the o-layer is compiled once per cuboid (cube.RollUpTo). An
// o-layer exception is not its own supporter.
func SupportersByOCell(idx *cube.AncestorIndex, res *Result) map[cube.CellKey][]Cell {
	up := idx.RollUpTo(res.Schema.OLayer())
	buckets := make(map[cube.CellKey][]Cell, res.NumOCells())
	for _, c := range res.ExceptionCells() {
		if o, ok := up.Key(c.Key); ok && o != c.Key {
			buckets[o] = append(buckets[o], c)
		}
	}
	return buckets
}
