package node

import (
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/wire"
)

// durableUnit is the durable_serve workload's unit as the node lives it,
// minus the sockets: D2L2C16 under the calendar chain on two shards,
// 1 000 seeded m-cells all reporting every tick, ten ticks a unit, and
// after each close the published snapshot and a checkpoint cut to
// io.Discard. warm units run first so buffers, pools and the frames'
// finest levels are at steady state.
type durableUnit struct {
	a     *Analyzer
	ticks []wire.Batch // one batch per tick of a unit; run re-stamps their ticks
	unit  int64
}

const durableTicksPerUnit = 10

func newDurableUnit(tb testing.TB, warm int) *durableUnit {
	tb.Helper()
	a, err := EngineConfig{
		Spec: "D2L2C16", TicksPerUnit: durableTicksPerUnit, Threshold: 1,
		Tilt: "calendar", Shards: 2, PublishSnapshots: true,
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(a.Close)

	const cells, card = 1000, 256
	r := rand.New(rand.NewSource(2011))
	picked := r.Perm(card * card)[:cells]
	sort.Ints(picked)
	d := &durableUnit{a: a, ticks: make([]wire.Batch, durableTicksPerUnit)}
	base, slope := make([]float64, cells), make([]float64, cells)
	for i := range base {
		base[i] = r.Float64() * 5
		slope[i] = r.NormFloat64() * 0.1
		if i%50 == 0 {
			slope[i] *= 20
		}
	}
	for t := range d.ticks {
		b := &d.ticks[t]
		b.Reset(2)
		for i, idx := range picked {
			b.Append(int64(t), []int32{int32(idx % card), int32(idx / card)}, base[i]+slope[i]*float64(t)+r.NormFloat64()*0.5)
		}
	}
	for range warm {
		d.run(tb)
	}
	return d
}

// run feeds one unit, closes it (which publishes) and cuts the checkpoint.
func (d *durableUnit) run(tb testing.TB) {
	for t := range d.ticks {
		b := &d.ticks[t]
		tick := d.unit*durableTicksPerUnit + int64(t)
		for i := range b.Ticks {
			b.Ticks[i] = tick
		}
		if _, err := d.a.IngestBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	d.unit++
	if err := d.a.SetWALSeq(d.unit * int64(durableTicksPerUnit*d.ticks[0].Len())); err != nil {
		tb.Fatal(err)
	}
	if _, err := d.a.AdvanceTo(d.unit); err != nil {
		tb.Fatal(err)
	}
	if d.a.Snapshot().Unit != d.unit-1 {
		tb.Fatalf("unit %d not published", d.unit-1)
	}
	if err := d.a.WriteCheckpoint(io.Discard); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDurableUnit reports what one durable unit costs the node: ns,
// bytes and allocations per unit (ingest, close, publish, checkpoint).
func BenchmarkDurableUnit(b *testing.B) {
	d := newDurableUnit(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		d.run(b)
	}
}

// durableUnitBudget is the bytes a steady-state durable unit may allocate:
// about 1.9 times what it does (≈ 0.21 MB). The shards' result lists, the
// published and checkpointed frame list with its level records, and the
// frames' slot backings as they grow are what is left (DESIGN §6.7); a
// close shares every slot a unit did not complete with the record before,
// and the cubing workspace and the checkpoint cut allocate nothing once
// warm. At about 3 MB a unit the node ran nearly one GC cycle per unit,
// and the cycle landed in whichever burst crossed the heap trigger.
const durableUnitBudget = 400_000

// bytesPerUnit runs units durable units and returns what each allocated,
// on average.
func (d *durableUnit) bytesPerUnit(tb testing.TB, units int) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range units {
		d.run(tb)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(units), (after.Mallocs - before.Mallocs) / uint64(units)
}

func TestDurableUnitAllocBudget(t *testing.T) {
	d := newDurableUnit(t, 100)
	perUnit, mallocs := d.bytesPerUnit(t, 20)
	t.Logf("%d B and %d mallocs per durable unit", perUnit, mallocs)
	if perUnit > durableUnitBudget {
		t.Fatalf("a durable unit allocates %d B, budget %d", perUnit, durableUnitBudget)
	}
}

// TestDurableUnitAllocFlat holds a unit's bytes to the unit, not to the
// history behind it: after 1 000 warm units the calendar chain's day level
// holds ten slots a frame where after 100 it held one, and a close that
// copied every retained slot paid for each of them again every unit. The
// window spans two days of units, so each frame's level backings regrow
// about as often in both readings.
func TestDurableUnitAllocFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1 400 durable units")
	}
	const window = 192
	d := newDurableUnit(t, 100)
	shallow, _ := d.bytesPerUnit(t, window)
	for d.unit < 1000 {
		d.run(t)
	}
	deep, _ := d.bytesPerUnit(t, window)
	t.Logf("%d B per unit after 100 units, %d B after 1 000", shallow, deep)
	if deep*100 > shallow*105 {
		t.Fatalf("a unit after 1 000 allocates %d B, more than 5%% over %d B after 100", deep, shallow)
	}
}
