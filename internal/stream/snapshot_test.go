package stream

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/wire"
)

func snapshotTestSchema(t testing.TB) *cube.Schema { return fanoutSchema(t, 2, 2) }

func snapshotTestConfig(t testing.TB) Config {
	return Config{
		Schema:           snapshotTestSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(0.5),
		PublishSnapshots: true,
	}
}

// verifySnapshot asserts the internal consistency every served snapshot
// must have: all parts describe the same closed unit.
func verifySnapshot(t testing.TB, cfg *Config, s *Snapshot) {
	t.Helper()
	wantLo := cfg.StartTick + s.Unit*int64(cfg.TicksPerUnit)
	if s.Interval.Tb != wantLo || s.Interval.Te != wantLo+int64(cfg.TicksPerUnit)-1 {
		t.Fatalf("snapshot unit %d has interval [%d,%d]", s.Unit, s.Interval.Tb, s.Interval.Te)
	}
	if s.UnitsDone != s.Unit+1 {
		t.Fatalf("snapshot unit %d with %d units done", s.Unit, s.UnitsDone)
	}
	for i, a := range s.Alerts {
		if a.Unit != s.Unit {
			t.Fatalf("alert %d is for unit %d inside snapshot of unit %d", i, a.Unit, s.Unit)
		}
		if s.Result == nil {
			t.Fatalf("alert %d inside empty-unit snapshot", i)
		}
		isb, ok := s.Result.OCell(a.Cell)
		if !ok {
			t.Fatalf("alert %d cell %v missing from the snapshot's o-layer", i, a.Cell)
		}
		if a.Kind == SlopeException && isb != a.ISB {
			t.Fatalf("alert %d ISB %+v differs from o-layer %+v", i, a.ISB, isb)
		}
		if i > 0 {
			prev, cur := s.Alerts[i-1], a
			if prev.Unit > cur.Unit ||
				(prev.Unit == cur.Unit && cube.CompareKeys(prev.Cell, cur.Cell) > 0) {
				t.Fatalf("alerts not in canonical order at %d", i)
			}
		}
	}
	if s.Result != nil {
		for _, c := range s.Result.OCells() {
			key, isb := c.Key, c.ISB
			h := s.HistoryOf(key)
			if len(h) == 0 {
				t.Fatalf("o-cell %v has no history in its own unit's snapshot", key)
			}
			tip := h[len(h)-1]
			if tip.Unit != s.Unit || tip.ISB != isb {
				t.Fatalf("o-cell %v history tip (%d, %+v) disagrees with unit %d o-layer %+v",
					key, tip.Unit, tip.ISB, s.Unit, isb)
			}
		}
		for _, c := range s.Result.ExceptionCells() {
			if isb, ok := s.Result.Exception(c.Key); !ok || isb != c.ISB {
				t.Fatalf("exception %v listed with %+v, looked up as %+v/%v", c.Key, c.ISB, isb, ok)
			}
		}
	}
	for _, f := range s.Frames {
		key := f.Key()
		h := s.HistoryOf(key)
		for i := 1; i < len(h); i++ {
			if h[i].Unit != h[i-1].Unit+1 {
				t.Fatalf("history of %v not contiguous at %d", key, i)
			}
		}
		if len(h) == 0 || h[len(h)-1].Unit != s.Unit {
			t.Fatalf("history of %v (%d units) does not end at snapshot unit %d", key, len(h), s.Unit)
		}
	}
}

// ingestGrid feeds every m-cell one reading per tick over [from, to),
// slopes varying per cell so alerts fire.
func ingestGrid(t testing.TB, ing func([]int32, int64, float64) ([]*Snapshot, error), from, to int64) {
	t.Helper()
	for tick := from; tick < to; tick++ {
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 4; b++ {
				if _, err := ing([]int32{a, b}, tick, float64(tick)*float64(a+2*b+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestSnapshotDisabledByDefault(t *testing.T) {
	cfg := snapshotTestConfig(t)
	cfg.PublishSnapshots = false
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestGrid(t, eng.Ingest, 0, 9)
	if eng.Snapshot() != nil {
		t.Fatal("snapshot published with PublishSnapshots off")
	}
	seng, err := NewEngine(withShards(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer seng.Close()
	ingestGrid(t, seng.Ingest, 0, 9)
	if seng.Snapshot() != nil {
		t.Fatal("sharded snapshot published with PublishSnapshots off")
	}
}

// TestReturnedSnapshotsArePublished holds what Ingest, IngestBatch,
// AdvanceTo and Flush return to what the engine publishes. With
// PublishSnapshots on, each call that closes units fires the publish
// signal and leaves Snapshot() at the last snapshot it returned, and every
// snapshot a waiter parked on the signal finds is a returned pointer — read
// by the waiter's goroutine while the caller reads it; with it off, the
// signal never fires, Snapshot() stays nil, and each returned snapshot
// encodes to the publishing run's bytes, the Origin and the wall-clock
// cubing times aside. Units close one at a time, several in one sparse
// batch, and several in one AdvanceTo, empty ones among them.
func TestReturnedSnapshotsArePublished(t *testing.T) {
	// run feeds one engine and returns the snapshots its calls returned,
	// their documents with the Origin and the times cleared, and what a
	// parked waiter found published.
	run := func(cfg Config) (returned []*Snapshot, docs [][]byte, found []*Snapshot) {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// stop ends the waiter, at the end or on a failed check.
		stopCh, done := make(chan struct{}), make(chan []*Snapshot, 1)
		stop := sync.OnceFunc(func() { close(stopCh) })
		defer stop()
		go func() {
			var got []*Snapshot
			look := func() {
				if s := e.Snapshot(); s != nil && (len(got) == 0 || got[len(got)-1] != s) {
					if _, err := EncodeSnapshot(s); err != nil {
						t.Error(err)
					}
					got = append(got, s)
				}
			}
			for {
				published := e.Published()
				look()
				select {
				case <-published:
				case <-stopCh:
					look()
					done <- got
					return
				}
			}
		}()
		keep := func(call func() ([]*Snapshot, error)) ([]*Snapshot, error) {
			signal := e.Published()
			snaps, err := call()
			fired := false
			select {
			case <-signal:
				fired = true
			default:
			}
			if want := cfg.PublishSnapshots && len(snaps) > 0; fired != want {
				t.Fatalf("%d units closed, publishing %v: the signal fired %v", len(snaps), cfg.PublishSnapshots, fired)
			}
			if fired && e.Snapshot() != snaps[len(snaps)-1] {
				t.Fatal("Snapshot() is not the last snapshot the call returned")
			}
			for _, s := range snaps {
				anon := *s
				anon.Origin = 0
				if s.Result != nil {
					res := *s.Result
					res.Stats.BuildTime, res.Stats.CubeTime = 0, 0
					anon.Result = &res
				}
				doc, err := EncodeSnapshot(&anon)
				if err != nil {
					t.Fatal(err)
				}
				returned, docs = append(returned, s), append(docs, doc)
			}
			return snaps, err
		}
		ingestGrid(t, func(m []int32, tick int64, v float64) ([]*Snapshot, error) {
			return keep(func() ([]*Snapshot, error) { return e.Ingest(m, tick, v) })
		}, 0, 9) // closes units 0 and 1
		var b wire.Batch
		b.Reset(2)
		b.Append(10, []int32{0, 0}, 1) // unit 2
		b.Append(21, []int32{1, 2}, 2) // closes units 2-4
		b.Append(30, []int32{3, 3}, 3) // closes units 5 and 6
		if _, err := keep(func() ([]*Snapshot, error) { return e.IngestBatch(&b) }); err != nil {
			t.Fatal(err)
		}
		if _, err := keep(func() ([]*Snapshot, error) { return e.AdvanceTo(11) }); err != nil { // closes units 7-10
			t.Fatal(err)
		}
		if _, err := keep(func() ([]*Snapshot, error) {
			last, err := e.Flush()
			return []*Snapshot{last}, err
		}); err != nil {
			t.Fatal(err)
		}
		if !cfg.PublishSnapshots && e.Snapshot() != nil {
			t.Fatal("publishing off, yet Snapshot() holds a unit")
		}
		stop()
		return returned, docs, <-done
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := withShards(snapshotTestConfig(t), shards)
			returned, docs, found := run(cfg)
			if len(returned) != 12 || len(found) == 0 {
				t.Fatalf("%d snapshots returned and %d found published, want 12 and some", len(returned), len(found))
			}
			for i, s := range returned {
				if s.Unit != int64(i) {
					t.Fatalf("snapshot %d is of unit %d", i, s.Unit)
				}
			}
			// Each found snapshot is a returned one, found in unit order,
			// and the waiter ends on the last.
			for i, s := range found {
				if int(s.Unit) >= len(returned) || returned[s.Unit] != s || (i > 0 && s.Unit <= found[i-1].Unit) {
					t.Fatalf("found %d: unit %d is not the returned snapshot in order", i, s.Unit)
				}
			}
			if found[len(found)-1] != returned[len(returned)-1] {
				t.Fatalf("the waiter ended on unit %d, not on the last returned", found[len(found)-1].Unit)
			}
			cfg.PublishSnapshots = false
			_, offDocs, offFound := run(cfg)
			if len(offFound) != 0 || len(offDocs) != len(docs) {
				t.Fatalf("publishing off: %d snapshots returned and %d found, want %d and none",
					len(offDocs), len(offFound), len(docs))
			}
			for i := range docs {
				if !bytes.Equal(offDocs[i], docs[i]) {
					t.Fatalf("unit %d: publishing off returned another snapshot than publishing on", i)
				}
			}
		})
	}
}

// TestSnapshotConcurrentReaders is the -race acceptance stress test: N
// goroutines hammer the snapshot read path while the 4-shard coordinator
// ingests at full rate, and every observed snapshot must be internally
// consistent — alerts, result, and history all of one unit.
func TestSnapshotConcurrentReaders(t *testing.T) {
	cfg := snapshotTestConfig(t)
	seng, err := NewEngine(withShards(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer seng.Close()

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *Snapshot
			seen := 0
			var prevUnit int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := seng.Snapshot()
				if s == nil {
					continue
				}
				if s != last {
					last = s
					seen++
					// Units move forward only.
					if s.Unit <= prevUnit {
						t.Errorf("snapshot went backwards: %d after %d", s.Unit, prevUnit)
						return
					}
					prevUnit = s.Unit
					verifySnapshot(t, &cfg, s)
					// Walk every alert's supporters off the shared index.
					for _, a := range s.Alerts {
						for c := range s.Result.Supporters(a.Cell) {
							if c.Key == a.Cell || !a.Cell.Cuboid.DominatedBy(c.Key.Cuboid) {
								t.Errorf("unit %d: %v listed among the supporters of o-cell %v", s.Unit, c.Key, a.Cell)
								return
							}
						}
					}
					// Exercise the trend path against the frozen history.
					for _, c := range s.Result.OCells() {
						key := c.Key
						if _, err := s.TrendQuery(key, 1); err != nil {
							t.Errorf("trend on snapshot unit %d: %v", s.Unit, err)
							return
						}
						break
					}
				}
			}
		}()
	}

	ticks := int64(400)
	if testing.Short() {
		ticks = 60
	}
	ingestGrid(t, seng.Ingest, 0, ticks)
	close(stop)
	wg.Wait()

	// The last tick leaves the final unit open; the newest closed unit is
	// the one before it.
	wantUnit := (ticks-1)/4 - 1
	final := seng.Snapshot()
	if final == nil || final.Unit != wantUnit {
		t.Fatalf("final snapshot unit = %d, want %d", final.Unit, wantUnit)
	}
}
