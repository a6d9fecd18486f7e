package stream

import (
	"reflect"
	"testing"

	"repro/internal/exception"
	"repro/internal/wire"
)

// engineSurface is what the one-shard test drives on both sides.
type engineSurface interface {
	ingester
	IngestBatch(b *wire.Batch) ([]*UnitResult, error)
	Subscribe(buf int) *Subscription
}

// A one-shard ShardedEngine is what the runtime builds for -shards 1, in
// place of the Engine it used to: same unit results, same published
// snapshot sequence on the bus, and — because its shard runs on the
// caller's goroutine — the same record error from the very call that
// carried the bad record, per record and per batch.
func TestOneShardMatchesEngine(t *testing.T) {
	cfg := Config{
		Schema:           wideSchema(t),
		TicksPerUnit:     4,
		Threshold:        exception.Global(1.0),
		Delta:            &exception.Delta{MinSlopeChange: 0.8},
		PublishSnapshots: true,
	}
	recs := genStream(3, 6, 4, 2)
	half := len(recs) / 2
	batches := toBatches(recs[half:])

	// run feeds the first half record by record and the second in batches,
	// then sends a record whose tick its cell already consumed — alone, or
	// inside a batch behind a good record.
	run := func(e engineSurface, inBatch bool) (urs []*UnitResult, snaps []*Snapshot, recErr error) {
		sub := e.Subscribe(64)
		for _, r := range recs[:half] {
			closed, err := e.Ingest(r.members, r.tick, r.value)
			if err != nil {
				t.Fatal(err)
			}
			urs = append(urs, closed...)
		}
		for _, b := range batches {
			closed, err := e.IngestBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			urs = append(urs, closed...)
		}
		last := recs[len(recs)-1]
		if inBatch {
			var bad wire.Batch
			bad.Reset(2)
			bad.Append(last.tick+1, last.members, 1)
			bad.Append(last.tick, last.members, 1)
			_, recErr = e.IngestBatch(&bad)
		} else {
			_, recErr = e.Ingest(last.members, last.tick, 1)
		}
		for {
			select {
			case s := <-sub.C():
				snaps = append(snaps, s)
				continue
			default:
			}
			return
		}
	}

	for _, inBatch := range []bool{false, true} {
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantURs, wantSnaps, wantErr := run(ref, inBatch)
		if wantErr == nil {
			t.Fatal("engine accepted a consumed tick")
		}

		one, err := NewShardedEngine(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer one.Close()
		if one.shards[0].in != nil {
			t.Fatal("the sole shard has a goroutine transport; want the caller's goroutine")
		}
		gotURs, gotSnaps, gotErr := run(one, inBatch)

		requireSameResults(t, "one-shard", wantURs, gotURs)
		if len(gotSnaps) != len(wantSnaps) {
			t.Fatalf("bus delivered %d snapshots, engine %d", len(gotSnaps), len(wantSnaps))
		}
		for i, w := range wantSnaps {
			g := gotSnaps[i]
			if g.Unit != w.Unit || g.UnitsDone != w.UnitsDone || g.Interval != w.Interval {
				t.Fatalf("snapshot %d: header %d/%d/%v, want %d/%d/%v",
					i, g.Unit, g.UnitsDone, g.Interval, w.Unit, w.UnitsDone, w.Interval)
			}
			if (g.Result == nil) != (w.Result == nil) {
				t.Fatalf("snapshot %d: result nil-ness differs", i)
			}
			if w.Result != nil && (!reflect.DeepEqual(g.Result.OLayer, w.Result.OLayer) ||
				!reflect.DeepEqual(g.Result.Exceptions, w.Result.Exceptions)) {
				t.Fatalf("snapshot %d: result cells differ", i)
			}
			if !reflect.DeepEqual(g.Alerts, w.Alerts) || !reflect.DeepEqual(g.Frames, w.Frames) {
				t.Fatalf("snapshot %d: alerts or frames differ", i)
			}
		}
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("inBatch=%v: record error %v, engine's %v", inBatch, gotErr, wantErr)
		}
	}
}
