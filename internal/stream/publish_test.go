package stream

import (
	"sync"
	"testing"
	"time"
)

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
