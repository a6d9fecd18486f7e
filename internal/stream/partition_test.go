package stream

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/wire"
)

// TestPartitionerRouteFoldAgree pins the one property everything in the
// cluster rests on: record-at-a-time routing (Route) and the batch paths
// (FoldColumns, CellRouter.Select), which route through cell dictionaries
// that run Route once per cell, must place every record in the same
// partition — across partition counts, on m-layers up to exactly 2¹⁶ cells
// (every m-cell) and past it (a grid of m-cells), with the router's
// dictionary cold and warm.
func TestPartitionerRouteFoldAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *cube.Schema
		step   int32 // member stride of the cells checked
	}{
		{"snapshot", snapshotTestSchema(t), 1},
		{"wide", wideSchema(t), 1},
		{"2^16", fanoutSchema(t, 16, 2), 1},
		{"past-2^16", fanoutSchema(t, 17, 2), 3},
		{"sparse", sparseSchema(t), 7},
	} {
		layout, err := newCellLayout(tc.schema)
		if err != nil {
			t.Fatal(err)
		}
		cards := layout.cards
		for _, n := range []int{1, 2, 3, 4, 7, 16, 300} {
			p, err := NewPartitioner(tc.schema, n)
			if err != nil {
				t.Fatal(err)
			}
			var b wire.Batch
			b.Reset(len(tc.schema.Dims))
			var want []int
			for a := int32(0); a < int32(cards[0]); a += tc.step {
				for c := int32(0); c < int32(cards[1]); c += tc.step {
					m := []int32{a, c}
					sid, err := p.Route(m)
					if err != nil {
						t.Fatal(err)
					}
					if sid < 0 || sid >= n {
						t.Fatalf("n=%d: Route(%d,%d) = %d out of range", n, a, c, sid)
					}
					want = append(want, sid)
					b.Append(int64(a), m, 1)
				}
			}
			hb := make([]uint64, b.Len())
			if err := p.FoldColumns(&b, 0, b.Len(), hb); err != nil {
				t.Fatal(err)
			}
			for i, sid := range hb {
				if int(sid) != want[i] {
					t.Fatalf("%s n=%d: record %d folds to %d, Route says %d", tc.name, n, i, sid, want[i])
				}
			}
			// Select over the back half, positions counting from 5: cold,
			// then warm a unit later.
			r := NewCellRouter(p)
			lo := b.Len() / 2
			for _, state := range []string{"cold", "warm"} {
				sel := make([][]int32, n)
				if err := r.Select(&b, lo, b.Len(), 5, sel); err != nil {
					t.Fatal(err)
				}
				r.Advance()
				if r.dict.n != b.Len()-lo {
					t.Fatalf("%s n=%d %s: the router holds %d cells after routing %d", tc.name, n, state, r.dict.n, b.Len()-lo)
				}
				got := 0
				for sid, list := range sel {
					for _, pos := range list {
						if i := lo + int(pos) - 5; want[i] != sid {
							t.Fatalf("%s n=%d %s: record %d selected for %d, Route says %d", tc.name, n, state, i, sid, want[i])
						}
						got++
					}
				}
				if got != b.Len()-lo {
					t.Fatalf("%s n=%d %s: %d of %d records selected", tc.name, n, state, got, b.Len()-lo)
				}
			}
		}
	}
}

// A CellRouter routes a stable cell set once for the stream's life, and
// under churn holds at most three units' cells: Advance drops its cells
// when they are more than twice the ones the closing unit routed, and an
// empty unit drops them all.
func TestCellRouterStaysBounded(t *testing.T) {
	p, err := NewPartitioner(sparseSchema(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewCellRouter(p)
	const cells = 1000
	unit := func(first int) {
		var b wire.Batch
		b.Reset(2)
		for tick := 0; tick < 3; tick++ {
			for k := first; k < first+cells; k++ {
				b.Append(int64(tick), []int32{int32(k % 729), int32(k / 729 % 360)}, 1)
			}
		}
		if err := r.Select(&b, 0, b.Len(), 0, make([][]int32, 4)); err != nil {
			t.Fatal(err)
		}
		if r.live != cells {
			t.Fatalf("unit of %d cells from %d: %d counted live", cells, first, r.live)
		}
		r.Advance()
	}
	for u := 0; u < 5; u++ {
		unit(0)
		if r.dict.n != cells {
			t.Fatalf("stable unit %d: the router holds %d cells, want %d", u, r.dict.n, cells)
		}
	}
	held := []int{}
	for u := 1; u <= 6; u++ {
		unit(u * cells)
		held = append(held, r.dict.n)
	}
	// Disjoint units: the stable set and the first churned unit stay (2 000
	// ≤ 2×1 000), the next Advance drops all three units' cells, and so on.
	if want := []int{2 * cells, 0, cells, 2 * cells, 0, cells}; !slices.Equal(held, want) {
		t.Fatalf("cells held after each churned unit: %v, want %v", held, want)
	}
	unit(0)
	r.Advance()
	if r.dict.n != 0 {
		t.Fatalf("an empty unit left %d cells", r.dict.n)
	}
}

// TestPartitionerRejects covers the config and record failure modes. An
// out-of-range member fails FoldColumns and CellRouter.Select with Route's
// error for the first bad member in dimension-major order, before any list
// is touched or any cell filed; an m-layer past 2⁶⁴ cells is ErrConfig.
func TestPartitionerRejects(t *testing.T) {
	schema := snapshotTestSchema(t)
	if _, err := NewPartitioner(schema, 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if _, err := NewPartitioner(overflowSchema(t), 2); !errors.Is(err, ErrConfig) {
		t.Fatalf("an m-layer past 2^64 cells: %v, want ErrConfig", err)
	}
	p, err := NewPartitioner(schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Route([]int32{-1, 0}); err == nil {
		t.Fatal("negative member accepted")
	}
	if _, err := p.Route([]int32{0, 99}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	var b wire.Batch
	b.Reset(2)
	b.Append(0, []int32{1, 1}, 1)
	b.Append(0, []int32{0, 99}, 1)
	b.Append(0, []int32{-1, 0}, 1)
	_, want := p.Route([]int32{-1, 0})
	if err := p.FoldColumns(&b, 0, 3, make([]uint64, 3)); err == nil || err.Error() != want.Error() {
		t.Fatalf("FoldColumns error %v, want %v", err, want)
	}
	r := NewCellRouter(p)
	sel := make([][]int32, 3)
	if err := r.Select(&b, 0, 3, 0, sel); err == nil || err.Error() != want.Error() {
		t.Fatalf("Select error %v, want %v", err, want)
	}
	for sid, list := range sel {
		if len(list) > 0 {
			t.Fatalf("a failed Select listed %v for partition %d", list, sid)
		}
	}
	if r.dict.n != 0 {
		t.Fatalf("a failed batch filed %d cells", r.dict.n)
	}
}

// TestPartitionerMatchesShardedEngine proves the extracted Partitioner is
// byte-for-byte a sharded engine's partition function: the engine's Route
// must agree with a standalone Partitioner built from the same schema and
// count.
func TestPartitionerMatchesShardedEngine(t *testing.T) {
	cfg := snapshotTestConfig(t)
	const shards = 4
	s, err := NewEngine(withShards(cfg, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := NewPartitioner(cfg.Schema, shards)
	if err != nil {
		t.Fatal(err)
	}
	for a := int32(0); a < 4; a++ {
		for c := int32(0); c < 4; c++ {
			got, err := s.part.Route([]int32{a, c})
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Route([]int32{a, c})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("member (%d,%d): engine shard %d, partitioner %d", a, c, got, want)
			}
		}
	}
}
