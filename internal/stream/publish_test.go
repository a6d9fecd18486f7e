package stream

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// returnedUnits feeds a stream with a leap through ing and flush and
// returns the units of every snapshot the calls returned, in order.
func returnedUnits(t *testing.T, ing func([]int32, int64, float64) ([]*Snapshot, error), flush func() (*Snapshot, error)) []int64 {
	t.Helper()
	var units []int64
	keep := func(m []int32, tick int64, v float64) ([]*Snapshot, error) {
		closed, err := ing(m, tick, v)
		for _, s := range closed {
			units = append(units, s.Unit)
		}
		return closed, err
	}
	ingestGrid(t, keep, 0, 9)
	// Jump over three units: units 3 and 4 close empty in one call.
	if _, err := keep([]int32{0, 0}, 21, 1); err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, keep, 22, 29)
	last, err := flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(units, last.Unit)
}

// TestShardedMatchesSingleUnitSequence: the engine returns the identical
// snapshot-unit sequence at any shard count — including a multi-unit
// advance, where one call closes several units at once (some empty).
func TestShardedMatchesSingleUnitSequence(t *testing.T) {
	cfg := snapshotTestConfig(t)
	var want []int64
	for _, shards := range []int{1, 4, 7} {
		eng, err := NewEngine(withShards(cfg, shards))
		if err != nil {
			t.Fatal(err)
		}
		got := returnedUnits(t, eng.Ingest, eng.Flush)
		eng.Close()
		if shards == 1 {
			want = got
			if !slices.Equal(want, []int64{0, 1, 2, 3, 4, 5, 6, 7}) {
				t.Fatalf("one shard returned units %v, want 0-7 in order", want)
			}
		} else if !slices.Equal(got, want) {
			t.Fatalf("%d shards returned units %v, one shard %v", shards, got, want)
		}
	}
}

// TestPublishSignalRaceStress runs full-rate 4-shard ingest under 8
// waiters parked on the publish signal — six that look as soon as it
// fires, one deliberately slow, one that takes the signal once and never
// waits — and asserts every snapshot a waiter finds is unit-consistent and
// newer than the last it found, that each waiter ends on the final unit,
// and that ingest finishes regardless of the waiters (the never-blocks
// property is structural: a publish closes a channel, it cannot wait).
func TestPublishSignalRaceStress(t *testing.T) {
	cfg := snapshotTestConfig(t)
	seng, err := NewEngine(withShards(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer seng.Close()

	ticks := int64(400)
	if testing.Short() {
		ticks = 60
	}
	_ = seng.Published() // the idle waiter: taken, never waited on

	const waiters, slowIdx = 7, 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	lastFound := make([]int64, waiters)
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(-1)
			look := func() bool {
				s := seng.Snapshot()
				if s == nil || s.Unit == prev {
					return true
				}
				if s.Unit < prev {
					t.Errorf("waiter %d: unit %d found after %d", i, s.Unit, prev)
					return false
				}
				prev = s.Unit
				verifySnapshot(t, &cfg, s)
				return true
			}
			defer func() { lastFound[i] = prev }()
			for {
				published := seng.Published()
				if !look() {
					return
				}
				select {
				case <-published:
					if i == slowIdx {
						time.Sleep(2 * time.Millisecond) // deliberately behind the unit rate
					}
				case <-stop:
					look()
					return
				}
			}
		}()
	}

	ingestGrid(t, seng.Ingest, 0, ticks)
	last, err := seng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	for i, u := range lastFound {
		if u != last.Unit {
			t.Errorf("waiter %d ended on unit %d, want the final unit %d", i, u, last.Unit)
		}
	}
}
