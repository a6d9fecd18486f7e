package core

import (
	"cmp"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// testSchema builds a D-dims, L-levels, fanout-C schema with o-layer at
// level 1 everywhere (the benchmark convention of §5).
func testSchema(t testing.TB, dims, levels, fanout int) *cube.Schema {
	t.Helper()
	ds := make([]cube.Dimension, dims)
	for d := 0; d < dims; d++ {
		h, err := cube.NewFanoutHierarchy(string(rune('A'+d)), fanout, levels)
		if err != nil {
			t.Fatal(err)
		}
		ds[d] = cube.Dimension{Name: string(rune('A' + d)), Hierarchy: h, MLevel: levels, OLevel: 1}
	}
	s, err := cube.NewSchema(ds...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomInputs makes n m-layer tuples with slopes drawn N(0, spread).
func randomInputs(s *cube.Schema, n int, spread float64, seed int64) []Input {
	r := rand.New(rand.NewSource(seed))
	inputs := make([]Input, n)
	for i := range inputs {
		members := make([]int32, len(s.Dims))
		for d := range members {
			members[d] = int32(r.Intn(s.Dims[d].Hierarchy.Cardinality(s.Dims[d].MLevel)))
		}
		inputs[i] = Input{
			Members: members,
			Measure: regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64() * spread},
		}
	}
	return inputs
}

// bruteForce computes every cuboid's cells directly from the inputs — the
// ground truth both algorithms must match.
func bruteForce(t *testing.T, s *cube.Schema, inputs []Input) map[cube.CellKey]regression.ISB {
	t.Helper()
	lattice := cube.NewLattice(s)
	out := make(map[cube.CellKey]regression.ISB)
	m := s.MLayer()
	for _, in := range inputs {
		var members [cube.MaxDims]int32
		copy(members[:], in.Members)
		base := cube.CellKey{Cuboid: m, Members: members}
		for _, c := range lattice.Cuboids() {
			key, err := cube.RollUpKey(s, base, c)
			if err != nil {
				t.Fatal(err)
			}
			if cur, ok := out[key]; ok {
				cur.Base += in.Measure.Base
				cur.Slope += in.Measure.Slope
				out[key] = cur
			} else {
				out[key] = in.Measure
			}
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	if _, err := MOCubing(s, nil, exception.Global(1)); err == nil {
		t.Fatal("expected empty-batch error")
	}
	bad := []Input{{Members: []int32{1}, Measure: regression.ISB{Tb: 0, Te: 9}}}
	if _, err := MOCubing(s, bad, exception.Global(1)); err == nil {
		t.Fatal("expected member-count error")
	}
	mixed := []Input{
		{Members: []int32{1, 1}, Measure: regression.ISB{Tb: 0, Te: 9}},
		{Members: []int32{2, 2}, Measure: regression.ISB{Tb: 0, Te: 4}},
	}
	if _, err := MOCubing(s, mixed, exception.Global(1)); err == nil {
		t.Fatal("expected interval mismatch error")
	}
	nonfinite := []Input{{Members: []int32{1, 1}, Measure: regression.ISB{Tb: 0, Te: 9, Slope: math.NaN()}}}
	if _, err := MOCubing(s, nonfinite, exception.Global(1)); err == nil {
		t.Fatal("expected non-finite error")
	}
}

func TestMOCubingMatchesBruteForce(t *testing.T) {
	s := testSchema(t, 3, 2, 3)
	inputs := randomInputs(s, 200, 1, 7)
	truth := bruteForce(t, s, inputs)
	thr := exception.Global(0.8)
	res, err := MOCubing(s, inputs, thr)
	if err != nil {
		t.Fatal(err)
	}
	// Every o-layer cell matches truth.
	o := s.OLayer()
	for _, cell := range res.OCells() {
		key, isb := cell.Key, cell.ISB
		want, ok := truth[key]
		if !ok || key.Cuboid != o {
			t.Fatalf("unexpected o-layer cell %v", key)
		}
		if !almostEq(isb.Base, want.Base, 1e-9) || !almostEq(isb.Slope, want.Slope, 1e-9) {
			t.Fatalf("o-layer cell %v = %v, want %v", key, isb, want)
		}
	}
	// Exceptions are exactly the truth cells over threshold.
	var wantExc int
	for key, isb := range truth {
		if exception.IsException(isb, 0.8) {
			wantExc++
			got, ok := res.Exception(key)
			if !ok {
				t.Fatalf("missing exception %v (slope %g)", key, isb.Slope)
			}
			if !almostEq(got.Slope, isb.Slope, 1e-9) {
				t.Fatalf("exception %v slope %g, want %g", key, got.Slope, isb.Slope)
			}
		}
	}
	if res.NumExceptions() != wantExc {
		t.Fatalf("exceptions = %d, want %d", res.NumExceptions(), wantExc)
	}
	// Every truth cell under threshold must NOT be in exceptions.
	for key, isb := range truth {
		if !exception.IsException(isb, 0.8) {
			if _, bad := res.Exception(key); bad {
				t.Fatalf("non-exception %v retained", key)
			}
		}
	}
}

func TestMOCubingStats(t *testing.T) {
	s := testSchema(t, 2, 2, 3)
	inputs := randomInputs(s, 100, 1, 8)
	res, err := MOCubing(s, inputs, exception.Global(0.5))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Algorithm != "m/o-cubing" {
		t.Fatalf("algorithm = %q", st.Algorithm)
	}
	if st.Tuples != 100 {
		t.Fatalf("tuples = %d", st.Tuples)
	}
	if st.CuboidsComputed != 4 { // 2 dims × 2 levels → 2·2 cuboids
		t.Fatalf("cuboids = %d", st.CuboidsComputed)
	}
	if st.CellsComputed <= 0 || st.TreeNodes <= 1 || st.TreeLeaves <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.BytesRetained <= 0 || st.PeakBytes < st.BytesRetained {
		t.Fatalf("bytes accounting: retained %d peak %d", st.BytesRetained, st.PeakBytes)
	}
	if st.CellsRetained != int64(res.NumOCells()+res.NumExceptions()) {
		t.Fatal("retained count mismatch")
	}
}

// TestTreeModelMatchesHTree: the H-trees the cubing kernels model instead
// of building are the reference trees built from the same tuples, on
// random schemas — o-layers anywhere, so some of Algorithm 1's prefix
// cuboids fall outside the lattice — random drilling paths, and duplicate
// tuples. m/o-cubing's tree has the cardinality-ordered tree's levels,
// node count and byte estimate; popular-path's has the path-ordered
// tree's node count, and its byte estimate plus one source reference per
// covering cell of every exception it retains.
func TestTreeModelMatchesHTree(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	outside := 0
	for trial := 0; trial < 40; trial++ {
		s, err := randomAgreementSchema(rng)
		if err != nil {
			t.Fatal(err)
		}
		inputs := randomAgreementInputs(rng, s, 1+rng.Intn(300))
		tree, err := newRefTree(s, cardinalityOrder(s), inputs)
		if err != nil {
			t.Fatal(err)
		}
		depths := treeDepths(s)
		if len(depths) != len(tree.attrs) {
			t.Fatalf("%s: %d modelled depths, the tree has %d", s.Describe(), len(depths), len(tree.attrs))
		}
		lattice := cube.NewLattice(s)
		for k, c := range depths {
			if want := tree.cuboidAtDepth(s, k+1); c != want {
				t.Fatalf("%s: depth %d models %s, the tree holds %s", s.Describe(), k+1, c.Describe(s), want.Describe(s))
			}
			if !lattice.Contains(c) {
				outside++
			}
		}
		res, err := MOCubing(s, inputs, exception.Global(rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.TreeNodes != tree.nodes || st.TreeLeaves != len(tree.leaves) {
			t.Fatalf("%s: %d nodes, %d leaves; the tree has %d, %d", s.Describe(), st.TreeNodes, st.TreeLeaves, tree.nodes, len(tree.leaves))
		}
		if want := tree.bytes() + st.CellsRetained*bytesPerCell; st.BytesRetained != want {
			t.Fatalf("%s: %d bytes retained, want %d", s.Describe(), st.BytesRetained, want)
		}

		path, err := lattice.PathFromSteps(randomSteps(rng, s))
		if err != nil {
			t.Fatal(err)
		}
		ptree, err := newRefTree(s, pathOrder(s, path), inputs)
		if err != nil {
			t.Fatal(err)
		}
		thr := exception.Global(rng.Float64())
		pp, err := PopularPath(s, inputs, thr, path)
		if err != nil {
			t.Fatal(err)
		}
		oLayer, excs, err := popularPathRef(s, inputs, thr, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := cmp.Or(equalCellLists("o-layer", oLayer, pp.OCells()), equalCellLists("exception", excs, pp.ExceptionCells())); err != nil {
			t.Fatalf("%s path %v: %v", s.Describe(), path.Cuboids, err)
		}
		st = pp.Stats
		if st.TreeNodes != ptree.nodes || st.TreeLeaves != len(ptree.leaves) {
			t.Fatalf("%s path %v: %d nodes, %d leaves; the tree has %d, %d", s.Describe(), path.Cuboids, st.TreeNodes, st.TreeLeaves, ptree.nodes, len(ptree.leaves))
		}
		// An exception's drill sources are its covering path cuboid's cells
		// beneath it. (An m-cell rolls up to every cuboid: no error.)
		below := make(map[cube.CellKey]map[cube.CellKey]bool)
		for _, c := range lattice.Cuboids() {
			for _, leaf := range ptree.leaves {
				k, _ := cube.RollUpKey(s, leaf.cell.Key, c)
				cov, _ := cube.RollUpKey(s, leaf.cell.Key, path.Covering(c))
				if below[k] == nil {
					below[k] = make(map[cube.CellKey]bool)
				}
				below[k][cov] = true
			}
		}
		var refs int64
		for _, x := range pp.ExceptionCells() {
			refs += int64(len(below[x.Key]))
		}
		if want := ptree.bytes() + st.CellsRetained*bytesPerCell + refs*8; st.BytesRetained != want {
			t.Fatalf("%s path %v: %d bytes retained, want %d", s.Describe(), path.Cuboids, st.BytesRetained, want)
		}
	}
	if outside == 0 {
		t.Fatal("no modelled depth fell outside the lattice; the test no longer covers the leaf count")
	}
}

// randomSteps returns a random drilling order from s's o-layer to its
// m-layer: each dimension's steps, shuffled together.
func randomSteps(rng *rand.Rand, s *cube.Schema) []int {
	var steps []int
	for d, dim := range s.Dims {
		for l := dim.OLevel; l < dim.MLevel; l++ {
			steps = append(steps, d)
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// TestPopularPathMatchesBruteForceOnPath: Step 2's runs are the path
// cuboids' cells exactly — every cell of each path cuboid, each summing
// the sorted leaves of its range and no other — and the o-layer is whole.
func TestPopularPathMatchesBruteForceOnPath(t *testing.T) {
	s := testSchema(t, 3, 2, 3)
	inputs := randomInputs(s, 200, 1, 9)
	truth := bruteForce(t, s, inputs)
	lattice := cube.NewLattice(s)
	for _, path := range []cube.Path{lattice.DefaultPath(), mustPath(t, lattice, []int{2, 0, 1})} {
		levels, _, err := rollUpPath(NewWorkspace(s), inputs, path)
		if err != nil {
			t.Fatal(err)
		}
		leaves := levels[len(levels)-1].cells
		for i, pc := range path.Cuboids {
			cells, starts := levels[i].cells, levels[i].starts
			if len(starts) != len(cells)+1 || starts[0] != 0 || int(starts[len(cells)]) != len(leaves) {
				t.Fatalf("path cuboid %v: %d cells, starts %v", pc, len(cells), starts)
			}
			want := 0
			for key := range truth {
				if key.Cuboid == pc {
					want++
				}
			}
			if len(cells) != want {
				t.Fatalf("path cuboid %v: %d cells, want %d", pc, len(cells), want)
			}
			for k, cell := range cells {
				isb, ok := truth[cell.Key]
				if !ok || cell.Key.Cuboid != pc {
					t.Fatalf("unexpected path cell %v", cell.Key)
				}
				if !almostEq(cell.ISB.Base, isb.Base, 1e-9) || !almostEq(cell.ISB.Slope, isb.Slope, 1e-9) {
					t.Fatalf("path cell %v = %v, want %v", cell.Key, cell.ISB, isb)
				}
				if starts[k] >= starts[k+1] {
					t.Fatalf("path cell %v: empty leaf range", cell.Key)
				}
				for _, leaf := range leaves[starts[k]:starts[k+1]] {
					if up, _ := cube.RollUpKey(s, leaf.Key, pc); up != cell.Key {
						t.Fatalf("leaf %v in the range of %v", leaf.Key, cell.Key)
					}
				}
			}
		}
		res, err := PopularPath(s, inputs, exception.Global(0.8), path)
		if err != nil {
			t.Fatal(err)
		}
		for key := range truth {
			if key.Cuboid == s.OLayer() {
				if _, ok := res.OCell(key); !ok {
					t.Fatalf("missing o-layer cell %v", key)
				}
			}
		}
	}
}

func mustPath(t *testing.T, l *cube.Lattice, steps []int) cube.Path {
	t.Helper()
	p, err := l.PathFromSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Popular-path exceptions must (a) be a subset of m/o-cubing's exceptions
// with identical measures, and (b) agree on every path cuboid, and (c)
// equal the downward closure of exception cells reachable from computed
// exception parents.
func TestAlgorithmsAgree(t *testing.T) {
	for _, spread := range []float64{0.3, 1, 3} {
		s := testSchema(t, 3, 2, 3)
		inputs := randomInputs(s, 300, spread, 10)
		thr := exception.Global(1.0)
		lattice := cube.NewLattice(s)
		path := lattice.DefaultPath()

		mo, err := MOCubing(s, inputs, thr)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := PopularPath(s, inputs, thr, path)
		if err != nil {
			t.Fatal(err)
		}

		// (o-layer identical)
		if mo.NumOCells() != pp.NumOCells() {
			t.Fatalf("o-layer sizes differ: %d vs %d", mo.NumOCells(), pp.NumOCells())
		}
		for _, cell := range mo.OCells() {
			key, a := cell.Key, cell.ISB
			b, ok := pp.OCell(key)
			if !ok {
				t.Fatalf("popular-path missing o-cell %v", key)
			}
			if !almostEq(a.Slope, b.Slope, 1e-9) || !almostEq(a.Base, b.Base, 1e-9) {
				t.Fatalf("o-cell %v differs: %v vs %v", key, a, b)
			}
		}

		// (subset with equal measures)
		for _, cell := range pp.ExceptionCells() {
			key, b := cell.Key, cell.ISB
			a, ok := mo.Exception(key)
			if !ok {
				t.Fatalf("popular-path exception %v not found by m/o-cubing", key)
			}
			if !almostEq(a.Slope, b.Slope, 1e-9) {
				t.Fatalf("exception %v slope differs: %g vs %g", key, a.Slope, b.Slope)
			}
		}

		// (closure): expected = all m/o exceptions on path cuboids, plus
		// off-path exceptions reachable via an exception parent in the
		// expected set, processed coarsest-first.
		expected := map[cube.CellKey]bool{}
		for _, c := range lattice.Cuboids() {
			for _, cell := range mo.ExceptionCells() {
				key, isb := cell.Key, cell.ISB
				if key.Cuboid != c {
					continue
				}
				_ = isb
				if path.OnPath(c) {
					expected[key] = true
					continue
				}
				for _, p := range lattice.Parents(c) {
					pk, err := cube.RollUpKey(s, key, p)
					if err != nil {
						t.Fatal(err)
					}
					if expected[pk] {
						expected[key] = true
						break
					}
				}
			}
		}
		if len(expected) != pp.NumExceptions() {
			t.Fatalf("closure size %d vs popular-path %d (spread %g)", len(expected), pp.NumExceptions(), spread)
		}
		for key := range expected {
			if _, ok := pp.Exception(key); !ok {
				t.Fatalf("closure cell %v missing from popular-path", key)
			}
		}
	}
}

func TestPopularPathCustomPath(t *testing.T) {
	s := testSchema(t, 2, 3, 2)
	lattice := cube.NewLattice(s)
	// Alternate path: interleave dimensions.
	path, err := lattice.PathFromSteps([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(s, 150, 1, 11)
	res, err := PopularPath(s, inputs, exception.Global(0.7), path)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := MOCubing(s, inputs, exception.Global(0.7))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.ExceptionCells() {
		key, b := cell.Key, cell.ISB
		a, ok := mo.Exception(key)
		if !ok {
			t.Fatalf("exception %v not in m/o set", key)
		}
		if !almostEq(a.Slope, b.Slope, 1e-9) {
			t.Fatal("slope mismatch")
		}
	}
}

func TestDegenerateSingleCuboidSchema(t *testing.T) {
	// o-layer == m-layer: the only cuboid is both critical layers.
	h, _ := cube.NewFanoutHierarchy("A", 3, 1)
	s, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 1, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{
		{Members: []int32{0}, Measure: regression.ISB{Tb: 0, Te: 9, Base: 1, Slope: 2}},
		{Members: []int32{1}, Measure: regression.ISB{Tb: 0, Te: 9, Base: 1, Slope: 0.1}},
	}
	res, err := MOCubing(s, inputs, exception.Global(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOCells() != 2 {
		t.Fatalf("o-layer cells = %d, want 2", res.NumOCells())
	}
	if res.NumExceptions() != 1 {
		t.Fatalf("exceptions = %d, want 1", res.NumExceptions())
	}
	lattice := cube.NewLattice(s)
	pp, err := PopularPath(s, inputs, exception.Global(1), lattice.DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumOCells() != 2 || pp.NumExceptions() != 1 {
		t.Fatalf("popular-path degenerate: o=%d exc=%d", pp.NumOCells(), pp.NumExceptions())
	}
}

func TestOLayerAtApex(t *testing.T) {
	// All dimensions observed at ALL: the o-layer is the apex cell.
	h, _ := cube.NewFanoutHierarchy("A", 3, 2)
	s, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 2, OLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(s, 50, 1, 12)
	mo, err := MOCubing(s, inputs, exception.Global(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if mo.NumOCells() != 1 {
		t.Fatalf("apex o-layer cells = %d, want 1", mo.NumOCells())
	}
	lattice := cube.NewLattice(s)
	pp, err := PopularPath(s, inputs, exception.Global(0.5), lattice.DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumOCells() != 1 {
		t.Fatalf("popular-path apex o-layer = %d, want 1", pp.NumOCells())
	}
	var a, b regression.ISB
	for _, cell := range mo.OCells() {
		v := cell.ISB
		a = v
	}
	for _, cell := range pp.OCells() {
		v := cell.ISB
		b = v
	}
	if !almostEq(a.Slope, b.Slope, 1e-9) || !almostEq(a.Base, b.Base, 1e-9) {
		t.Fatalf("apex cells differ: %v vs %v", a, b)
	}
	if mk, pk := mo.OCells()[0].Key, pp.OCells()[0].Key; mk != pk {
		t.Fatalf("apex keys differ: %v vs %v", mk, pk)
	}
}

func TestThresholdSweepMonotonicity(t *testing.T) {
	// Higher thresholds must retain fewer (or equal) exceptions — the
	// mechanism behind the Figure 8 sweep.
	s := testSchema(t, 2, 2, 4)
	inputs := randomInputs(s, 400, 1, 14)
	var prev int = 1 << 30
	for _, thr := range []float64{0.1, 0.5, 1, 2, 5} {
		res, err := MOCubing(s, inputs, exception.Global(thr))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumExceptions() > prev {
			t.Fatalf("exceptions grew from %d to %d when threshold rose to %g", prev, res.NumExceptions(), thr)
		}
		prev = res.NumExceptions()
	}
}

func TestPopularPathStats(t *testing.T) {
	s := testSchema(t, 2, 3, 3)
	inputs := randomInputs(s, 500, 1, 15)
	lattice := cube.NewLattice(s)
	res, err := PopularPath(s, inputs, exception.Global(0.4), lattice.DefaultPath())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Algorithm != "popular-path" {
		t.Fatalf("algorithm = %q", st.Algorithm)
	}
	if st.CuboidsComputed < len(lattice.DefaultPath().Cuboids) {
		t.Fatal("must compute at least the path cuboids")
	}
	if st.BytesRetained <= 0 || st.PeakBytes < st.BytesRetained {
		t.Fatal("bytes accounting broken")
	}
	// Path cells are retained: memory must exceed the tree alone.
	if st.CellsRetained <= 0 {
		t.Fatal("path cells must be retained")
	}
}

// Memory-shape check backing Figure 8(b): at a high threshold (few
// exceptions) popular-path must retain more than m/o-cubing (it stores the
// whole path), and m/o-cubing's retention must grow as the threshold
// drops.
func TestMemoryShapeVsException(t *testing.T) {
	s := testSchema(t, 3, 2, 4)
	inputs := randomInputs(s, 1000, 1, 16)
	lattice := cube.NewLattice(s)
	path := lattice.DefaultPath()

	moHigh, _ := MOCubing(s, inputs, exception.Global(100))
	ppHigh, _ := PopularPath(s, inputs, exception.Global(100), path)
	if ppHigh.Stats.CellsRetained <= moHigh.Stats.CellsRetained {
		t.Fatalf("at high threshold popular-path should retain more: %d vs %d",
			ppHigh.Stats.CellsRetained, moHigh.Stats.CellsRetained)
	}
	moLow, _ := MOCubing(s, inputs, exception.Global(0.01))
	if moLow.Stats.CellsRetained <= moHigh.Stats.CellsRetained {
		t.Fatalf("m/o retention should grow when threshold drops: %d vs %d",
			moLow.Stats.CellsRetained, moHigh.Stats.CellsRetained)
	}
}
