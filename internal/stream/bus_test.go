package stream

import (
	"sync"
	"testing"
	"time"
)

// drainUnits receives every buffered snapshot and returns their units in
// delivery order.
func drainUnits(sub *Subscription) []int64 {
	var units []int64
	for {
		select {
		case s := <-sub.C():
			units = append(units, s.Unit)
		default:
			return units
		}
	}
}

func TestBusDeliversEveryUnit(t *testing.T) {
	cfg := snapshotTestConfig(t)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(256)
	defer sub.Close()

	ingestGrid(t, eng.Ingest, 0, 41) // closes units 0..9
	units := drainUnits(sub)
	if len(units) != 10 {
		t.Fatalf("delivered %d snapshots, want 10: %v", len(units), units)
	}
	for i, u := range units {
		if u != int64(i) {
			t.Fatalf("delivery %d is unit %d, want %d", i, u, i)
		}
	}
	if got := eng.BusDropped(); got != 0 {
		t.Fatalf("dropped %d snapshots with an ample buffer", got)
	}
}

func TestBusShardedMatchesSingleDeliverySequence(t *testing.T) {
	// The bus must deliver the identical snapshot-unit sequence at any
	// shard count — including multi-unit advances, where the coordinator
	// barrier closes several units at once (some empty).
	feed := func(ing func([]int32, int64, float64) ([]*Snapshot, error)) {
		ingestGrid(t, ing, 0, 9)
		// Jump over three units: units 3 and 4 close empty at the barrier.
		if _, err := ing([]int32{0, 0}, 21, 1); err != nil {
			t.Fatal(err)
		}
		ingestGrid(t, ing, 22, 29)
	}

	cfg := snapshotTestConfig(t)
	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ssub := single.Subscribe(256)
	feed(single.Ingest)
	want := drainUnits(ssub)

	for _, shards := range []int{1, 4, 7} {
		seng, err := NewEngine(withShards(cfg, shards))
		if err != nil {
			t.Fatal(err)
		}
		sub := seng.Subscribe(256)
		feed(seng.Ingest)
		got := drainUnits(sub)
		seng.Close()
		if len(got) != len(want) {
			t.Fatalf("%d shards delivered %v, single delivered %v", shards, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d shards delivered %v, single delivered %v", shards, got, want)
			}
		}
	}
}

func TestBusLatestWinsOnSlowConsumer(t *testing.T) {
	cfg := snapshotTestConfig(t)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One-slot subscription that never reads while 10 units close: the
	// publisher must shed oldest-first, never block, and leave exactly the
	// newest snapshot buffered.
	sub := eng.Subscribe(1)
	defer sub.Close()
	ingestGrid(t, eng.Ingest, 0, 41)

	units := drainUnits(sub)
	if len(units) != 1 || units[0] != 9 {
		t.Fatalf("blocked subscriber drained %v, want just the newest unit 9", units)
	}
	if got := eng.BusDropped(); got != 9 {
		t.Fatalf("dropped %d snapshots, want 9", got)
	}
}

func TestBusSubscribeOffWhenNotPublishing(t *testing.T) {
	cfg := snapshotTestConfig(t)
	cfg.PublishSnapshots = false
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(4)
	defer sub.Close()
	ingestGrid(t, eng.Ingest, 0, 41)
	if units := drainUnits(sub); len(units) != 0 {
		t.Fatalf("publication off, yet delivered %v", units)
	}
}

func TestBusUnsubscribeStopsDelivery(t *testing.T) {
	cfg := snapshotTestConfig(t)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(256)
	ingestGrid(t, eng.Ingest, 0, 5) // tick 4 closes unit 0
	sub.Close()
	ingestGrid(t, eng.Ingest, 5, 41) // closes units 1..9
	units := drainUnits(sub)
	if len(units) != 1 || units[0] != 0 {
		t.Fatalf("closed subscription drained %v, want just unit 0", units)
	}
	sub.Close() // idempotent
}

// TestBusRaceStress runs full-rate 4-shard ingest under 8 concurrent
// subscribers — six keeping up, one deliberately slow, one fully blocked —
// and asserts every delivered snapshot is unit-consistent, per-subscriber
// delivery is strictly unit-ordered, and ingest finishes regardless of the
// blocked consumer (the never-blocks property is structural: a full
// channel sheds, the publisher cannot wait).
func TestBusRaceStress(t *testing.T) {
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
	// Ingest alone closes units 0..ticks/4-2 (the final unit stays open
	// until Flush bumps the count below).
	totalUnits := ticks/4 - 1

	const slowIdx = 6
	subs := make([]*Subscription, 8)
	for i := range subs {
		buf := int(ticks/4) + 1
		if i >= slowIdx {
			buf = 2 // slow and blocked subscribers run shallow
		}
		subs[i] = seng.Subscribe(buf)
	}
	// subs[7] is the blocked one: nobody ever receives from it.

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i <= slowIdx; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var prevUnit int64 = -1
			count := 0
			for {
				select {
				case s := <-subs[idx].C():
					if s.Unit <= prevUnit {
						t.Errorf("subscriber %d: unit %d delivered after %d", idx, s.Unit, prevUnit)
						return
					}
					prevUnit = s.Unit
					count++
					verifySnapshot(t, &cfg, s)
					if idx == slowIdx {
						time.Sleep(2 * time.Millisecond) // deliberately behind the unit rate
					}
				case <-stop:
					// Drain what is buffered, then report.
					for {
						select {
						case s := <-subs[idx].C():
							if s.Unit <= prevUnit {
								t.Errorf("subscriber %d: unit %d delivered after %d", idx, s.Unit, prevUnit)
								return
							}
							prevUnit = s.Unit
							count++
							verifySnapshot(t, &cfg, s)
						default:
							if idx < slowIdx && int64(count) != totalUnits {
								t.Errorf("fast subscriber %d saw %d units, want %d", idx, count, totalUnits)
							}
							return
						}
					}
				}
			}
		}(i)
	}

	ingestGrid(t, seng.Ingest, 0, ticks)
	if _, err := seng.Flush(); err == nil {
		// Flush closes the open unit too, so subscribers can observe it;
		// totalUnits above excludes it only for fast-count purposes.
		totalUnits++
	} else {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The blocked subscriber forced drops; the fast ones lost nothing, so
	// every drop came from the shallow consumers.
	if seng.BusDropped() == 0 {
		t.Fatal("blocked subscriber never forced a drop")
	}
	for _, sub := range subs {
		sub.Close()
	}
}
