package core

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/htree"
	"repro/internal/regression"
)

// moCubingRef is Algorithm 1 as first written, before the PR-2 hot-path
// rewrite: a fresh H-tree per call, and per cuboid one map header table
// filled leaf by leaf. It is the reference the bitwise agreement tests hold
// MOCubing and a reused Workspace to, and the road not taken that the two
// ablation benchmarks below time. indexed picks how a leaf is rolled up:
// the interface-walking cube.RollUpKey (false — the original kernel, and
// what the agreement tests use) or the tree's cube.AncestorIndex (true),
// so each ablation changes one thing.
func moCubingRef(s *cube.Schema, inputs []Input, thr exception.Thresholder, indexed bool) (*Result, error) {
	if err := validate(s, inputs); err != nil {
		return nil, err
	}
	tree, err := buildTree(s, htree.CardinalityOrder(s), inputs)
	if err != nil {
		return nil, err
	}
	idx := tree.AncestorIndex()
	res := &Result{
		Schema:     s,
		OLayer:     make(map[cube.CellKey]regression.ISB),
		Exceptions: make(map[cube.CellKey]regression.ISB),
	}
	st := &res.Stats
	st.Algorithm = "m/o-cubing (reference)"
	st.Tuples = len(inputs)
	st.TreeNodes = tree.NodeCount()
	st.TreeLeaves = tree.LeafCount()

	mLayer, oLayer := s.MLayer(), s.OLayer()
	treeBytes := tree.BytesEstimate()
	for _, c := range cube.NewLattice(s).Cuboids() {
		st.CuboidsComputed++
		isM := c.Equal(mLayer)
		table := make(map[cube.CellKey]regression.ISB)
		for _, leaf := range tree.Leaves() {
			key := tree.CellKeyOf(leaf)
			switch {
			case isM: // the leaves are the m-layer's cells
			case indexed:
				key = idx.RollUp(key, c)
			default:
				if key, err = cube.RollUpKey(s, key, c); err != nil {
					return nil, err
				}
			}
			accumulate(table, key, leaf.Measure)
		}
		distinct := int64(len(table))
		st.CellsComputed += distinct
		if !isM && distinct > st.PeakScratchCells {
			st.PeakScratchCells = distinct // the m-layer is read off the tree, not scratch
		}
		if peak := treeBytes + (distinct+int64(len(res.Exceptions)+len(res.OLayer)))*bytesPerCell; peak > st.PeakBytes {
			st.PeakBytes = peak
		}
		threshold := thr.Threshold(c)
		for key, isb := range table {
			if c.Equal(oLayer) {
				res.OLayer[key] = isb
			}
			if exception.IsException(isb, threshold) {
				res.Exceptions[key] = isb
			}
		}
	}
	st.CellsRetained = int64(len(res.OLayer) + len(res.Exceptions))
	return res, nil
}

// ablationInput is the Fig-8 bench shape (D3L3C6T10K).
func ablationInput(b *testing.B) (*cube.Schema, []Input, exception.Thresholder) {
	s := testSchema(b, 3, 3, 6)
	return s, randomInputs(s, 10000, 1, 16), exception.Global(40)
}

func benchCubing(b *testing.B, run func() (*Result, error)) {
	b.ReportAllocs()
	var last *Result
	for n := 0; n < b.N; n++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.CellsComputed), "cells/op")
	b.ReportMetric(float64(last.Stats.PeakBytes)/(1<<20), "peakMB/op")
}

// Ablation: the precomputed cube.AncestorIndex vs the interface-walking
// cube.RollUpKey in the reference kernel's cuboid×leaf loop — the same map
// header table (and identical bitwise results) in both arms, so the gap is
// purely the per-leaf ancestor resolution (DESIGN.md §5 #6).
func BenchmarkAblationAncestorIndex(b *testing.B) {
	s, inputs, thr := ablationInput(b)
	b.Run("indexed", func(b *testing.B) {
		benchCubing(b, func() (*Result, error) { return moCubingRef(s, inputs, thr, true) })
	})
	b.Run("interface-walk", func(b *testing.B) {
		benchCubing(b, func() (*Result, error) { return moCubingRef(s, inputs, thr, false) })
	})
}

// Ablation: the production kernel's reusable sorted-run aggregator vs the
// reference kernel's per-cuboid map header table — AncestorIndex roll-ups
// (and identical bitwise results) in both arms, so the gap is the scratch
// strategy's allocation and hashing churn (DESIGN.md §5 #7).
func BenchmarkAblationScratchReuse(b *testing.B) {
	s, inputs, thr := ablationInput(b)
	b.Run("sorted-run", func(b *testing.B) {
		benchCubing(b, func() (*Result, error) { return MOCubing(s, inputs, thr) })
	})
	b.Run("map-scratch", func(b *testing.B) {
		benchCubing(b, func() (*Result, error) { return moCubingRef(s, inputs, thr, true) })
	})
}
