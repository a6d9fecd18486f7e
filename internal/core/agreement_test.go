package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// Property: for RANDOM schema shapes (dims, levels, fanouts, o-levels),
// random workloads, and random thresholds, m/o-cubing agrees with the exact
// oracle (full cubing) and popular-path with both:
//
//   - m/o-cubing's o-layer is the full cube's o-cuboid, key for key;
//   - its exceptions are exactly the full cube's cells over threshold;
//   - popular-path's exceptions are the drill-down closure subset.
func TestAllEnginesAgreeOnRandomSchemas(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(404))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nDims := 1 + r.Intn(3)
		dims := make([]cube.Dimension, nDims)
		for d := 0; d < nDims; d++ {
			levels := 1 + r.Intn(3)
			fanout := 2 + r.Intn(3)
			h, err := cube.NewFanoutHierarchy(string(rune('A'+d)), fanout, levels)
			if err != nil {
				return false
			}
			oLevel := r.Intn(levels + 1) // 0..levels
			if oLevel > levels {
				oLevel = levels
			}
			dims[d] = cube.Dimension{
				Name: string(rune('A' + d)), Hierarchy: h,
				MLevel: levels, OLevel: oLevel,
			}
		}
		s, err := cube.NewSchema(dims...)
		if err != nil {
			return false
		}
		nTuples := 20 + r.Intn(300)
		inputs := make([]Input, nTuples)
		for i := range inputs {
			members := make([]int32, nDims)
			for d := range members {
				members[d] = int32(r.Intn(s.Dims[d].Hierarchy.Cardinality(s.Dims[d].MLevel)))
			}
			inputs[i] = Input{
				Members: members,
				Measure: regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64() * 2},
			}
		}
		threshold := r.Float64() * 3
		thr := exception.Global(threshold)

		mo, err := MOCubing(s, inputs, thr)
		if err != nil {
			return false
		}
		full, err := FullCubing(s, inputs)
		if err != nil {
			return false
		}
		lattice := cube.NewLattice(s)
		pp, err := PopularPath(s, inputs, thr, lattice.DefaultPath())
		if err != nil {
			return false
		}

		// The o-layer is retained whole: exactly the full cube's o-cuboid.
		fullO := full.Cuboids[s.OLayer()]
		if len(fullO) != len(mo.OLayer) {
			return false
		}
		for key, want := range fullO {
			got, ok := mo.OLayer[key]
			if !ok || !almostEq(got.Slope, want.Slope, 1e-7) {
				return false
			}
		}

		// Full cubing contains every mo exception with the same measure,
		// and every full cell over threshold is an mo exception.
		var fullExc int
		for c, cells := range full.Cuboids {
			th := thr.Threshold(c)
			for key, isb := range cells {
				if exception.IsException(isb, th) {
					fullExc++
					want, ok := mo.Exceptions[key]
					if !ok || !almostEq(want.Slope, isb.Slope, 1e-7) {
						return false
					}
				}
			}
		}
		if fullExc != len(mo.Exceptions) {
			return false
		}

		// Popular-path subset + closure.
		for key, isb := range pp.Exceptions {
			want, ok := mo.Exceptions[key]
			if !ok || !almostEq(want.Slope, isb.Slope, 1e-7) {
				return false
			}
		}
		path := lattice.DefaultPath()
		expected := map[cube.CellKey]bool{}
		for _, c := range lattice.Cuboids() {
			for key := range mo.Exceptions {
				if key.Cuboid != c {
					continue
				}
				if path.OnPath(c) {
					expected[key] = true
					continue
				}
				for _, p := range lattice.Parents(c) {
					pk, err := cube.RollUpKey(s, key, p)
					if err != nil {
						return false
					}
					if expected[pk] {
						expected[key] = true
						break
					}
				}
			}
		}
		if len(expected) != len(pp.Exceptions) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
