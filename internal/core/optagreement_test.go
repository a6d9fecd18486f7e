package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
)

// bitwiseEqualResults demands exact float equality — the optimized paths
// must replay the unoptimized paths' operand order, not approximate it —
// and the same canonical lists, element by element, so order is pinned as
// well as contents.
func bitwiseEqualResults(a, b *Result) error {
	if err := equalCellLists("o-layer", a.OCells(), b.OCells()); err != nil {
		return err
	}
	if err := equalCellLists("exception", a.ExceptionCells(), b.ExceptionCells()); err != nil {
		return err
	}
	if a.Stats.CellsComputed != b.Stats.CellsComputed ||
		a.Stats.CellsRetained != b.Stats.CellsRetained ||
		a.Stats.PeakScratchCells != b.Stats.PeakScratchCells ||
		a.Stats.CuboidsComputed != b.Stats.CuboidsComputed ||
		a.Stats.TreeNodes != b.Stats.TreeNodes ||
		a.Stats.TreeLeaves != b.Stats.TreeLeaves {
		return fmt.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	return nil
}

// equalCellLists compares two cell lists element by element.
func equalCellLists(kind string, a, b []Cell) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s list size %d vs %d", kind, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s cell %d: %v vs %v", kind, i, a[i], b[i])
		}
	}
	return nil
}

// randomAgreementSchema mixes fanout and explicitly-enumerated hierarchies
// so both AncestorIndex strategies are exercised.
func randomAgreementSchema(r *rand.Rand) (*cube.Schema, error) {
	nDims := 1 + r.Intn(3)
	dims := make([]cube.Dimension, nDims)
	for d := 0; d < nDims; d++ {
		levels := 1 + r.Intn(3)
		var h cube.Hierarchy
		if r.Intn(2) == 0 {
			fh, err := cube.NewFanoutHierarchy(string(rune('A'+d)), 2+r.Intn(3), levels)
			if err != nil {
				return nil, err
			}
			h = fh
		} else {
			nh := cube.NewNamedHierarchy(string(rune('A' + d)))
			card := 2 + r.Intn(3)
			names := make([]string, card)
			for i := range names {
				names[i] = fmt.Sprintf("d%d.1.%d", d, i)
			}
			if err := nh.AddLevel(names, nil); err != nil {
				return nil, err
			}
			for l := 2; l <= levels; l++ {
				next := card + r.Intn(2*card+1)
				names = make([]string, next)
				parents := make([]int32, next)
				for i := range names {
					names[i] = fmt.Sprintf("d%d.%d.%d", d, l, i)
					parents[i] = int32(r.Intn(card))
				}
				if err := nh.AddLevel(names, parents); err != nil {
					return nil, err
				}
				card = next
			}
			h = nh
		}
		dims[d] = cube.Dimension{Name: string(rune('A' + d)), Hierarchy: h, MLevel: levels, OLevel: r.Intn(levels + 1)}
	}
	return cube.NewSchema(dims...)
}

// randomAgreementInputs draws n tuples over s, with duplicate m-cells on
// purpose: multi-leaf runs are where operand order can diverge.
func randomAgreementInputs(r *rand.Rand, s *cube.Schema, n int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		members := make([]int32, s.NumDims())
		for d := range members {
			card := s.Dims[d].Hierarchy.Cardinality(s.Dims[d].MLevel)
			if card > 4 && r.Intn(2) == 0 {
				card = 4
			}
			members[d] = int32(r.Intn(card))
		}
		inputs[i] = Input{
			Members: members,
			Measure: regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64() * 2},
		}
	}
	return inputs
}

// Property: MOCubing (sorted-run aggregator, ancestor index) and the
// reference kernel with either roll-up (map header table; interface walk or
// ancestor index) produce bitwise identical results on random schemas and
// datasets. This is the referee for the PR-2 hot-path rewrite: the
// optimizations must change cost only.
func TestMOCubingOptionsBitwiseAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(202))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := randomAgreementSchema(r)
		if err != nil {
			t.Logf("schema: %v", err)
			return false
		}
		inputs := randomAgreementInputs(r, s, 20+r.Intn(200))
		thr := exception.Global(r.Float64() * 2)

		baseline, err := moCubingRef(s, inputs, thr, false)
		if err != nil {
			t.Logf("baseline: %v", err)
			return false
		}
		for name, run := range map[string]func() (*Result, error){
			"MOCubing":        func() (*Result, error) { return MOCubing(s, inputs, thr) },
			"reference+index": func() (*Result, error) { return moCubingRef(s, inputs, thr, true) },
		} {
			got, err := run()
			if err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			if err := bitwiseEqualResults(baseline, got); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a Workspace carried through a run of batches — large, then a
// few tuples, then large again, with a rejected batch in between — gives
// every batch the result the reference kernel gives it, bit for bit
// (moCubingRef: fresh tree, map header table, interface walk), and a result
// handed out earlier is not touched by later runs: nothing of a unit
// survives in the tree, the leaf buffer or the run aggregator into the
// next.
func TestWorkspaceReuseBitwiseAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(303))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := randomAgreementSchema(r)
		if err != nil {
			t.Logf("schema: %v", err)
			return false
		}
		thr := exception.Global(r.Float64() * 2)
		ws := NewWorkspace(s)
		var firstGot, firstWant *Result
		for i, n := range []int{150 + r.Intn(150), 1 + r.Intn(5), 0, 6000, 2, 40 + r.Intn(100)} {
			if n == 0 {
				// A batch the tree rejects halfway leaves it half built.
				bad := randomAgreementInputs(r, s, 30)
				bad[20].Members[0] = -1
				if _, err := ws.MOCubing(bad, thr); err == nil {
					t.Log("out-of-range member accepted")
					return false
				}
				continue
			}
			inputs := randomAgreementInputs(r, s, n)
			want, err := moCubingRef(s, inputs, thr, false)
			if err != nil {
				t.Logf("baseline: %v", err)
				return false
			}
			got, err := ws.MOCubing(inputs, thr)
			if err != nil {
				t.Logf("workspace batch %d: %v", i, err)
				return false
			}
			if err := bitwiseEqualResults(want, got); err != nil {
				t.Logf("workspace batch %d (%d tuples): %v", i, n, err)
				return false
			}
			if firstGot == nil {
				firstGot, firstWant = got, want
			}
		}
		if err := bitwiseEqualResults(firstWant, firstGot); err != nil {
			t.Logf("first result after later runs: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// flatHierarchy is a single-level hierarchy with a huge member count, used
// to overflow the sorted-run aggregator's linear cell coding.
type flatHierarchy struct {
	name string
	card int
}

func (f *flatHierarchy) Levels() int { return 1 }
func (f *flatHierarchy) Cardinality(level int) int {
	if level <= 0 {
		return 1
	}
	return f.card
}
func (f *flatHierarchy) Parent(level int, member int32) int32 { return 0 }
func (f *flatHierarchy) MemberName(level int, member int32) string {
	return fmt.Sprintf("%s.%d", f.name, member)
}

// The coded sort only covers cuboids whose cell space fits in a uint64;
// larger spaces take the key-sorting fallback, which must agree bitwise
// with the reference kernel's map header table too.
func TestMOCubingSortFallbackBitwiseAgreement(t *testing.T) {
	// Three 2^21-member flat dimensions and one 2-level fanout dimension:
	// cuboid (1,1,1,1) spans 2^63·2 cells, overflowing the coder, while the
	// m-layer (1,1,1,2) is served by the leaf pass.
	const bigCard = 1 << 21
	fh, err := cube.NewFanoutHierarchy("D", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: &flatHierarchy{name: "A", card: bigCard}, MLevel: 1, OLevel: 0},
		cube.Dimension{Name: "B", Hierarchy: &flatHierarchy{name: "B", card: bigCard}, MLevel: 1, OLevel: 0},
		cube.Dimension{Name: "C", Hierarchy: &flatHierarchy{name: "C", card: bigCard}, MLevel: 1, OLevel: 0},
		cube.Dimension{Name: "D", Hierarchy: fh, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cuboidCoder(s, cube.MustCuboid(1, 1, 1, 1)); ok {
		t.Fatal("expected the 2^64-cell cuboid to overflow the coder")
	}
	r := rand.New(rand.NewSource(71))
	// Few distinct members per dimension → plenty of duplicate cells, while
	// the member values span the huge domain.
	pick := func() int32 { return int32(r.Intn(8)) * (bigCard / 8) }
	inputs := make([]Input, 300)
	for i := range inputs {
		inputs[i] = Input{
			Members: []int32{pick(), pick(), pick(), int32(r.Intn(4))},
			Measure: regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64() * 2},
		}
	}
	thr := exception.Global(0.5)
	t.Run("m/o-cubing", func(t *testing.T) {
		baseline, err := moCubingRef(s, inputs, thr, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MOCubing(s, inputs, thr)
		if err != nil {
			t.Fatal(err)
		}
		if err := bitwiseEqualResults(baseline, got); err != nil {
			t.Fatal(err)
		}
	})
	// Popular-path and delta-cubing run the same aggregator, the 2^64-cell
	// cuboid and the m-layer's duplicates included.
	t.Run("popular-path", func(t *testing.T) {
		// Popular-path's sums do not depend on leaf order; only each
		// m-cell's fold of its tuples does. Give fifty m-cells three tuples
		// each, so the fold's order shows in their bits.
		inputs := slices.Clone(inputs)
		for _, in := range inputs[:50] {
			for range 2 {
				inputs = append(inputs, Input{Members: in.Members, Measure: regression.ISB{Tb: 0, Te: 9, Base: r.NormFloat64(), Slope: r.NormFloat64() * 2}})
			}
		}
		path := cube.NewLattice(s).DefaultPath()
		got, err := PopularPath(s, inputs, thr, path)
		if err != nil {
			t.Fatal(err)
		}
		oLayer, excs, err := popularPathRef(s, inputs, thr, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalCellLists("o-layer", oLayer, got.OCells()); err != nil {
			t.Fatal(err)
		}
		if err := equalCellLists("exception", excs, got.ExceptionCells()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("delta-cubing", func(t *testing.T) {
		cur := make([]Input, len(inputs))
		for i := range cur {
			cur[i] = Input{
				Members: []int32{pick(), pick(), pick(), int32(r.Intn(4))},
				Measure: regression.ISB{Tb: 10, Te: 19, Base: r.NormFloat64(), Slope: r.NormFloat64() * 2},
			}
		}
		checkDeltaCubing(t, s, cur, inputs, exception.Delta{MinSlopeChange: 0.5}, func(in []Input) (*Result, error) {
			return moCubingRef(s, in, exception.Global(0), false) // every cell retained
		})
	})
}
