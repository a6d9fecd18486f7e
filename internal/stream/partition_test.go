package stream

import (
	"testing"

	"repro/internal/wire"
)

// TestPartitionerRouteFoldAgree pins the one property everything in the
// cluster rests on: record-at-a-time routing (Route), the column-wise
// batch fold (FoldColumns), and the raw o-tuple hash (Hash) must place
// every record in the same partition — across partition counts.
func TestPartitionerRouteFoldAgree(t *testing.T) {
	schema := snapshotTestSchema(t)
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		p, err := NewPartitioner(schema, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Partitions() != n {
			t.Fatalf("Partitions = %d, want %d", p.Partitions(), n)
		}
		var b wire.Batch
		b.Reset(len(schema.Dims))
		var want []int
		for a := int32(0); a < 4; a++ {
			for c := int32(0); c < 4; c++ {
				sid, err := p.Route([]int32{a, c})
				if err != nil {
					t.Fatal(err)
				}
				if sid < 0 || sid >= n {
					t.Fatalf("n=%d: Route(%d,%d) = %d out of range", n, a, c, sid)
				}
				want = append(want, sid)
				b.Append(int64(a), []int32{a, c}, 1)
			}
		}
		hb := make([]uint64, b.Len())
		if err := p.FoldColumns(&b, 0, b.Len(), hb); err != nil {
			t.Fatal(err)
		}
		for i, sid := range hb {
			if int(sid) != want[i] {
				t.Fatalf("n=%d: record %d folds to %d, Route says %d", n, i, sid, want[i])
			}
		}
	}
}

// TestPartitionerRejects covers the config and record failure modes.
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
	var b wire.Batch
	b.Reset(2)
	b.Append(0, []int32{0, 99}, 1)
	if err := p.FoldColumns(&b, 0, 1, make([]uint64, 1)); err == nil {
		t.Fatal("out-of-range member accepted by FoldColumns")
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
