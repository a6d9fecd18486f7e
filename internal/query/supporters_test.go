package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/stream"
)

// fullScanSupporters is View.Supporters as a scan of every retained
// exception: the cells below cell, coarsest cuboids first, steepest first
// within a cuboid.
func fullScanSupporters(res *core.Result, cell cube.CellKey) []core.Cell {
	var out []core.Cell
	for _, c := range res.ExceptionCells() {
		if c.Key != cell && cube.IsDescendantCell(res.Schema, c.Key, cell) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b core.Cell) int {
		if da, db := depth(a.Key.Cuboid), depth(b.Key.Cuboid); da != db {
			return da - db
		}
		if sa, sb := math.Abs(a.ISB.Slope), math.Abs(b.ISB.Slope); sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return cube.CompareKeys(a.Key, b.Key)
	})
	return out
}

// TestSupportersIndexMatchesFullScan holds the supporters index to scans
// of the canonical exception list over random batches: a single engine at
// 1, 2 and 4 shards, and the same stream split across 1, 2 and 4 nodes
// whose snapshots go through the wire codec and MergeSnapshots. Every
// o-cell's Result.Supporters is the brute-force filter of
// ExceptionCells(), every retained cell's View.Supporters the full-scan
// answer, order included, and every unit's /v1/alerts encoding the
// one-shard engine's: a slope exception lists its o-cell's supporters, a
// slope change none.
func TestSupportersIndexMatchesFullScan(t *testing.T) {
	schema, err := gen.Spec{Dims: 3, Levels: 2, Fanout: 3, Tuples: 1}.StreamSchema()
	if err != nil {
		t.Fatal(err)
	}
	const ticksPerUnit, units, cellsPerUnit = 4, 4, 150
	type record struct {
		members []int32
		tick    int64
		value   float64
	}
	rng := rand.New(rand.NewSource(41))
	var recs []record
	for u := 0; u < units; u++ {
		cells := rng.Perm(9 * 9 * 9)[:cellsPerUnit]
		slopes := make([]float64, len(cells))
		for i := range slopes {
			slopes[i] = rng.NormFloat64()
		}
		for tk := 0; tk < ticksPerUnit; tk++ {
			for i, c := range cells {
				m := []int32{int32(c % 9), int32(c / 9 % 9), int32(c / 81)}
				recs = append(recs, record{m, int64(u*ticksPerUnit + tk), 5 + slopes[i]*float64(tk)})
			}
		}
	}
	cfg := stream.Config{
		Schema: schema, TicksPerUnit: ticksPerUnit, Threshold: exception.Global(0.8),
		Delta: &exception.Delta{MinSlopeChange: 0.5}, PublishSnapshots: true,
	}

	wantAlerts := make(map[int64][]AlertJSON) // by unit, from the one-shard engine
	supporters, exceptionAlerts, changeAlerts := 0, 0, 0
	check := func(label string, unit int64, res *core.Result, alerts []stream.Alert) {
		t.Helper()
		if res == nil {
			t.Fatalf("%s unit %d: no result", label, unit)
		}
		below := make(map[cube.CellKey][]core.Cell)
		for _, o := range res.OCells() {
			var want []core.Cell
			for _, c := range res.ExceptionCells() {
				if c.Key != o.Key && cube.IsDescendantCell(schema, c.Key, o.Key) {
					want = append(want, c)
				}
			}
			if got := slices.Collect(res.Supporters(o.Key)); !slices.Equal(got, want) {
				t.Fatalf("%s unit %d: Result.Supporters(%s) = %v, want %v", label, unit, o.Key.Describe(schema), got, want)
			}
			below[o.Key] = want
			supporters += len(want)
		}
		v := NewView(res)
		for _, c := range slices.Concat(res.OCells(), res.ExceptionCells()) {
			if got, want := v.Supporters(c.Key), fullScanSupporters(res, c.Key); !slices.Equal(got, want) {
				t.Fatalf("%s unit %d: View.Supporters(%s) = %v, want %v", label, unit, c.Key.Describe(schema), got, want)
			}
		}
		got := make([]AlertJSON, len(alerts))
		for i, a := range alerts {
			got[i] = encodeAlert(schema, res, a)
			want := []CellJSON{} // a slope change lists none
			if a.Kind == stream.SlopeException {
				want = encodeCells(schema, below[a.Cell])
				exceptionAlerts++
			} else {
				changeAlerts++
			}
			if !reflect.DeepEqual(got[i].Supporters, want) {
				t.Fatalf("%s unit %d: %s alert on %s lists supporters %+v, want %+v", label, unit, a.Kind, a.Cell.Describe(schema), got[i].Supporters, want)
			}
		}
		if want, ok := wantAlerts[unit]; !ok {
			wantAlerts[unit] = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s unit %d: alerts encode as %+v, want %+v", label, unit, got, want)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		c := cfg
		c.Shards = shards
		eng, err := stream.NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var closed []*stream.Snapshot
		for _, r := range recs {
			urs, err := eng.Ingest(r.members, r.tick, r.value)
			if err != nil {
				t.Fatal(err)
			}
			closed = append(closed, urs...)
		}
		ur, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for _, ur := range append(closed, ur) {
			check(fmt.Sprintf("%d shards", shards), ur.Unit, ur.Result, ur.Alerts)
		}
	}

	// A cluster stand-in: the nodes close each boundary in lockstep (the
	// router's barrier), and their snapshots cross the wire and merge.
	for _, nodes := range []int{1, 2, 4} {
		part, err := stream.NewPartitioner(schema, nodes)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]*stream.Engine, nodes)
		for i := range engines {
			if engines[i], err = stream.NewEngine(cfg); err != nil {
				t.Fatal(err)
			}
			defer engines[i].Close()
		}
		gather := func(u int64) {
			snaps := make([]*stream.Snapshot, nodes)
			for i, e := range engines {
				if _, err := e.AdvanceTo(u); err != nil {
					t.Fatal(err)
				}
				data, err := stream.EncodeSnapshot(e.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if snaps[i], err = stream.DecodeSnapshot(schema, data); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := stream.MergeSnapshots(schema, snaps)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%d nodes, merged", nodes), merged.Unit, merged.Result, merged.Alerts)
		}
		open := int64(0)
		for _, r := range recs {
			if u := r.tick / ticksPerUnit; u > open {
				gather(u)
				open = u
			}
			n, err := part.Route(r.members)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engines[n].Ingest(r.members, r.tick, r.value); err != nil {
				t.Fatal(err)
			}
		}
		gather(units)
	}
	if len(wantAlerts) != units || supporters == 0 || exceptionAlerts == 0 || changeAlerts == 0 {
		t.Fatalf("the stream is vacuous: %d units checked, %d supporters, %d slope-exception and %d slope-change alerts",
			len(wantAlerts), supporters, exceptionAlerts, changeAlerts)
	}
}
