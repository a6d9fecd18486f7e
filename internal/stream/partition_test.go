package stream

import (
	"testing"

	"repro/internal/cube"
	"repro/internal/wire"
)

// TestPartitionerRouteFoldAgree pins the one property everything in the
// cluster rests on: record-at-a-time routing (Route), the cell table
// filled from it, and the batch paths (FoldColumns, Select) must place
// every record in the same partition — across partition counts, on dense
// m-layers (every m-cell, up to exactly denseCells of them: the table) and
// on one past the cap (a grid of m-cells: no table, the o-ancestor fold).
func TestPartitionerRouteFoldAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *cube.Schema
		step   int32 // member stride of the cells checked
	}{
		{"snapshot", snapshotTestSchema(t), 1},
		{"wide", wideSchema(t), 1},
		{"at-cap", fanoutSchema(t, 16, 2), 1},
		{"sparse", sparseSchema(t), 7},
	} {
		layout := newCellLayout(tc.schema)
		cards := layout.cards
		for _, n := range []int{1, 2, 3, 4, 7, 16, 300} {
			p, err := NewPartitioner(tc.schema, n)
			if err != nil {
				t.Fatal(err)
			}
			if p.Partitions() != n {
				t.Fatalf("Partitions = %d, want %d", p.Partitions(), n)
			}
			if hasTable := p.table != nil; hasTable != (int(cards[0])*int(cards[1]) <= denseCells) {
				t.Fatalf("%s: cell table present = %v for %d×%d m-cells", tc.name, hasTable, cards[0], cards[1])
			}
			var b wire.Batch
			b.Reset(len(tc.schema.Dims))
			var want []int
			for a := int32(0); a < cards[0]; a += tc.step {
				for c := int32(0); c < cards[1]; c += tc.step {
					m := []int32{a, c}
					sid, err := p.Route(m)
					if err != nil {
						t.Fatal(err)
					}
					if sid < 0 || sid >= n {
						t.Fatalf("n=%d: Route(%d,%d) = %d out of range", n, a, c, sid)
					}
					if p.table != nil {
						if idx, _ := layout.index(m); int(p.table[idx]) != sid {
							t.Fatalf("%s n=%d: table routes (%d,%d) to %d, Route to %d", tc.name, n, a, c, p.table[idx], sid)
						}
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
			// Select over the back half, positions counting from 5.
			lo := b.Len() / 2
			cells, sel := make([]int32, b.Len()-lo), make([][]int32, n)
			if err := p.Select(&b, lo, b.Len(), cells, hb[lo:], 5, sel); err != nil {
				t.Fatal(err)
			}
			got := 0
			for sid, list := range sel {
				for _, pos := range list {
					if i := lo + int(pos) - 5; want[i] != sid {
						t.Fatalf("%s n=%d: record %d selected for %d, Route says %d", tc.name, n, i, sid, want[i])
					}
					got++
				}
			}
			if got != b.Len()-lo {
				t.Fatalf("%s n=%d: %d of %d records selected", tc.name, n, got, b.Len()-lo)
			}
			for i := range cells {
				if p.table == nil {
					break
				}
				if idx, _ := layout.index([]int32{b.Cols[0][lo+i], b.Cols[1][lo+i]}); cells[i] != idx {
					t.Fatalf("%s n=%d: record %d's cell index %d, want %d", tc.name, n, lo+i, cells[i], idx)
				}
			}
		}
	}
}

// TestPartitionerRejects covers the config and record failure modes. An
// out-of-range member fails the cell-table path and the fold path with
// the same error — Route's for the first bad member in dimension-major
// order — before any list is touched.
func TestPartitionerRejects(t *testing.T) {
	schema := snapshotTestSchema(t)
	if _, err := NewPartitioner(schema, 0); err == nil {
		t.Fatal("0 partitions accepted")
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
	if p.table == nil {
		t.Fatal("no cell table on a 16-cell m-layer")
	}
	folding := *p
	folding.table = nil
	var b wire.Batch
	b.Reset(2)
	b.Append(0, []int32{0, 99}, 1)
	b.Append(0, []int32{-1, 0}, 1)
	_, want := p.Route([]int32{-1, 0})
	for _, q := range []*Partitioner{p, &folding} {
		if err := q.FoldColumns(&b, 0, 2, make([]uint64, 2)); err == nil || err.Error() != want.Error() {
			t.Fatalf("table=%v: FoldColumns error %v, want %v", q.table != nil, err, want)
		}
		sel := make([][]int32, 3)
		if err := q.Select(&b, 0, 2, make([]int32, 2), make([]uint64, 2), 0, sel); err == nil || err.Error() != want.Error() {
			t.Fatalf("table=%v: Select error %v, want %v", q.table != nil, err, want)
		}
		for sid, list := range sel {
			if len(list) > 0 {
				t.Fatalf("table=%v: a failed Select listed %v for partition %d", q.table != nil, list, sid)
			}
		}
	}
}

// TestPartitionerMatchesShardedEngine proves the extracted Partitioner is
// byte-for-byte the ShardedEngine's partition function: a sharded engine's
// per-record shardOf must agree with a standalone Partitioner built from
// the same schema and count.
func TestPartitionerMatchesShardedEngine(t *testing.T) {
	cfg := snapshotTestConfig(t)
	const shards = 4
	s, err := NewShardedEngine(cfg, shards)
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
