package regcube

// Micro-benchmarks of the substrate operations, the sharded-engine
// benchmarks the CI perf canary names, and ablation benches for the design
// decisions listed in DESIGN.md §5 (#6 and #7 live in internal/core, beside
// the reference kernel they time). The paper's Figures 8–10 are swept by
// internal/bench (cmd/benchfig); the stream pipeline end to end and layer
// by layer is timed by benchmark/.
//
// Custom metrics reported per op:
//   cells/op  — cells aggregated (the paper's computation cost)
//   peakMB/op — peak resident estimate (the paper's memory-usage panels)

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/htree"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

func benchDataset(b *testing.B, spec gen.Spec, seed int64) *gen.Dataset {
	b.Helper()
	ds, err := gen.Generate(gen.Config{Spec: spec, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func reportCubing(b *testing.B, res *core.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Stats.CellsComputed), "cells/op")
	b.ReportMetric(float64(res.Stats.PeakBytes)/(1<<20), "peakMB/op")
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkFit100Points(b *testing.B) {
	b.ReportAllocs()
	s := timeseries.NewSynth(1).Linear(0, 100, 5, 0.2, 1)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := regression.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateStandard8(b *testing.B) {
	b.ReportAllocs()
	isbs := make([]regression.ISB, 8)
	for i := range isbs {
		isbs[i] = regression.ISB{Tb: 0, Te: 99, Base: float64(i), Slope: float64(i) / 10}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := regression.AggregateStandard(isbs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateTime8(b *testing.B) {
	b.ReportAllocs()
	isbs := make([]regression.ISB, 8)
	for i := range isbs {
		isbs[i] = regression.ISB{Tb: int64(i * 10), Te: int64(i*10 + 9), Base: float64(i), Slope: 0.5}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := regression.AggregateTime(isbs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	b.ReportAllocs()
	acc := regression.NewAccumulator(0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := acc.Add(int64(n), float64(n%7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTreeInsert(b *testing.B) {
	b.ReportAllocs()
	ds := benchDataset(b, gen.Spec{Dims: 3, Levels: 3, Fanout: 6, Tuples: 10000}, 11)
	attrs := htree.CardinalityOrder(ds.Schema)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		in := ds.Inputs[n%len(ds.Inputs)]
		if n%len(ds.Inputs) == 0 {
			b.StopTimer()
			var err error
			tree, err := htree.New(ds.Schema, attrs)
			if err != nil {
				b.Fatal(err)
			}
			benchTree = tree
			b.StartTimer()
		}
		if err := benchTree.Insert(in.Members, in.Measure); err != nil {
			b.Fatal(err)
		}
	}
}

var benchTree *htree.HTree

func BenchmarkTiltFrameAdd(b *testing.B) {
	b.ReportAllocs()
	f := tilt.MustNew(tilt.CalendarLevels(), 0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := f.Add(int64(n), float64(n%60)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded stream engine (DESIGN.md §6): throughput vs shard count ------

// shardedBenchSchema is sized for parallelism: the 8×8 o-layer gives 64
// hash partitions, so up to 64 shards stay busy.
func shardedBenchSchema(b *testing.B) *cube.Schema {
	b.Helper()
	ha, err := cube.NewFanoutHierarchy("A", 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	hb, err := cube.NewFanoutHierarchy("B", 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	return schema
}

// shardedBenchCells spreads 256 distinct m-cells over every o-partition.
func shardedBenchCells() [][]int32 {
	cells := make([][]int32, 256)
	for i := range cells {
		cells[i] = []int32{int32(i % 64), int32((i*7 + i/64) % 64)}
	}
	return cells
}

// Pure accumulate path: no unit ever closes; the final drain (an
// ActiveCells barrier, inside the timer) waits for queued shard work so it
// is charged to the run. Near-linear scaling here needs ≥ `shards` cores.
func BenchmarkShardedIngest(b *testing.B) {
	b.ReportAllocs()
	schema := shardedBenchSchema(b)
	cells := shardedBenchCells()
	cfg := stream.Config{
		Schema:       schema,
		TicksPerUnit: 1 << 30,
		Threshold:    exception.Global(1e18), // no alerts: isolate ingest
	}
	run := func(b *testing.B, ingest func(members []int32, tick int64, v float64) error, drain func() error) {
		b.Helper()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			tick := int64(n / len(cells))
			if err := ingest(cells[n%len(cells)], tick, float64(n%13)); err != nil {
				b.Fatal(err)
			}
		}
		if err := drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("single-engine", func(b *testing.B) {
		b.ReportAllocs()
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run(b,
			func(m []int32, t int64, v float64) error { _, err := eng.Ingest(m, t, v); return err },
			func() error { _ = eng.ActiveCells(); return nil })
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			eng, err := stream.NewShardedEngine(cfg, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			run(b,
				func(m []int32, t int64, v float64) error { _, err := eng.Ingest(m, t, v); return err },
				func() error { _, err := eng.ActiveCells(); return err })
		})
	}
}

// The batch path in the firehose workload's shape (DESIGN.md §11.3): a
// D2L2C4 stream, every one of the 256 m-cells reporting on every tick, in
// 2 048-record frames — one op is one frame through IngestBatch, ticks
// rewritten in place between calls as a decoder reusing its batch would.
// No unit closes; the final ActiveCells barrier is inside the timer.
// ns/rec at 1 / 2 / 4 shards is what sharding costs on ingest. sparse-s2
// feeds the same 256 cells spread over a D2L3C8 m-layer of 262 144 cells,
// and wide-s2 over a D2L2C17 one of 83 521, just past 2¹⁶, both at 2
// shards: every m-layer takes the one cell path, so their cost should
// follow the active cells, not the nominal ones.
func BenchmarkShardedIngestBatch(b *testing.B) {
	const cells, frameTicks = 256, 8
	for _, leg := range []struct {
		name   string
		spec   string
		spread int32 // member stride: 16 values per dimension
		shards int
	}{
		{"s1", "D2L2C4T1", 1, 1},
		{"s2", "D2L2C4T1", 1, 2},
		{"s4", "D2L2C4T1", 1, 4},
		{"sparse-s2", "D2L3C8T1", 32, 2},
		{"wide-s2", "D2L2C17T1", 18, 2},
	} {
		spec, err := gen.ParseSpec(leg.spec)
		if err != nil {
			b.Fatal(err)
		}
		schema, err := spec.StreamSchema()
		if err != nil {
			b.Fatal(err)
		}
		var frame wire.Batch
		frame.Reset(2)
		for i := 0; i < cells*frameTicks; i++ {
			c := int32(i % cells)
			frame.Append(int64(i/cells), []int32{c % 16 * leg.spread, c / 16 * leg.spread}, float64(i%13))
		}
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			eng, err := stream.NewShardedEngine(stream.Config{
				Schema:       schema,
				TicksPerUnit: 1 << 40,
				Threshold:    exception.Global(1e18),
			}, leg.shards)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range frame.Ticks {
					frame.Ticks[i] = int64(n*frameTicks + i/cells)
				}
				if _, err := eng.IngestBatch(&frame); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := eng.ActiveCells(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame.Len()), "ns/rec")
		})
	}
}

// The whole pipeline in the serving/alerting configuration: a unit closes
// (and cubes, in parallel across shards) every 64 ticks × 256 cells,
// snapshot publication is on and a subscriber drains the broadcast bus,
// which costs one channel send per closed unit (the suite isolates it as
// stream.close_unit_ms.sN minus .nopublish).
func BenchmarkShardedIngestBusSubscriber(b *testing.B) {
	b.ReportAllocs()
	schema := shardedBenchSchema(b)
	cells := shardedBenchCells()
	cfg := stream.Config{
		Schema:           schema,
		TicksPerUnit:     64,
		Threshold:        exception.Global(100),
		PublishSnapshots: true,
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			eng, err := stream.NewShardedEngine(cfg, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			sub := eng.Subscribe(16)
			defer sub.Close()
			done := make(chan int64)
			stop := make(chan struct{})
			go func() {
				var seen int64
				for {
					select {
					case <-sub.C():
						seen++
					case <-stop:
						// Publication has stopped; count what is still
						// buffered so the accounting below is exact.
						for {
							select {
							case <-sub.C():
								seen++
								continue
							default:
							}
							break
						}
						done <- seen
						return
					}
				}
			}()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tick := int64(n / len(cells))
				if _, err := eng.Ingest(cells[n%len(cells)], tick, float64(n%13)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			close(stop)
			seen := <-done
			if units := eng.UnitsDone(); units > 0 && seen+eng.BusDropped() < units {
				b.Fatalf("subscriber saw %d of %d units with %d dropped", seen, units, eng.BusDropped())
			}
		})
	}
}

// Alert-heavy unit close (DESIGN.md §6, "what a unit close costs"): 5 000
// seeded cells of the 262 144-cell D3L3C4 m-layer with per-unit slopes
// ~ N(0,1) against threshold 1, so every one of the 64 o-cells alerts and
// about a third of the computed cells are retained as their supporters —
// the streaming form of Fig 8-10 and the shape of the suite's cube_heavy
// workload. Ingest runs outside the timer; one op is one unit's close:
// harvest, sort, cubing, supporter index, alerts, shard merge.
func BenchmarkCloseUnitAlertHeavy(b *testing.B) {
	const cells, ticksPerUnit = 5000, 10
	schema, err := gen.Spec{Dims: 3, Levels: 3, Fanout: 4, Tuples: cells}.StreamSchema()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	members := make([][]int32, cells)
	for i, idx := range rng.Perm(64 * 64 * 64)[:cells] {
		members[i] = []int32{int32(idx % 64), int32(idx / 64 % 64), int32(idx / 4096)}
	}
	cfg := stream.Config{Schema: schema, TicksPerUnit: ticksPerUnit, Threshold: exception.Global(1)}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			// The node's split: one shard is the plain Engine.
			var eng interface {
				Ingest(members []int32, tick int64, value float64) ([]*stream.UnitResult, error)
				Flush() (*stream.UnitResult, error)
			}
			if shards == 1 {
				eng, err = stream.NewEngine(cfg)
			} else {
				var sharded *stream.ShardedEngine
				sharded, err = stream.NewShardedEngine(cfg, shards)
				if sharded != nil {
					defer sharded.Close()
				}
				eng = sharded
			}
			if err != nil {
				b.Fatal(err)
			}
			// A four-unit cycle of slopes, the same for every shard count.
			srng := rand.New(rand.NewSource(13))
			var cycle [4][cells]float64
			for u := range cycle {
				for i := range cycle[u] {
					cycle[u][i] = srng.NormFloat64()
				}
			}
			var alerts, supporters int
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				slopes := &cycle[n%len(cycle)]
				for t := 0; t < ticksPerUnit; t++ {
					tick := int64(n*ticksPerUnit + t)
					for i, m := range members {
						if _, err := eng.Ingest(m, tick, 5+slopes[i]*float64(t)); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()
				ur, err := eng.Flush()
				if err != nil {
					b.Fatal(err)
				}
				alerts = len(ur.Alerts)
				supporters = 0
				for _, al := range ur.Alerts {
					supporters += len(al.Drill)
				}
			}
			b.ReportMetric(float64(alerts), "alerts/op")
			b.ReportMetric(float64(supporters), "supporters/op")
		})
	}
}

// --- Ablation benches (DESIGN.md §5) --------------------------------------

// Ablation: H-tree construction vs a flat map of m-layer cells. The H-tree
// pays for prefix structure; the flat map cannot serve path cuboids or
// header-table traversals.
func BenchmarkAblationHTreeBuild(b *testing.B) {
	b.ReportAllocs()
	ds := benchDataset(b, gen.Spec{Dims: 3, Levels: 3, Fanout: 6, Tuples: 10000}, 12)
	attrs := htree.CardinalityOrder(ds.Schema)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tree, err := htree.New(ds.Schema, attrs)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range ds.Inputs {
			if err := tree.Insert(in.Members, in.Measure); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationFlatMapBuild(b *testing.B) {
	b.ReportAllocs()
	ds := benchDataset(b, gen.Spec{Dims: 3, Levels: 3, Fanout: 6, Tuples: 10000}, 12)
	m := ds.Schema.MLayer()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		flat := make(map[cube.CellKey]regression.ISB, len(ds.Inputs))
		for _, in := range ds.Inputs {
			var members [cube.MaxDims]int32
			copy(members[:], in.Members)
			key := cube.CellKey{Cuboid: m, Members: members}
			if cur, ok := flat[key]; ok {
				cur.Base += in.Measure.Base
				cur.Slope += in.Measure.Slope
				flat[key] = cur
			} else {
				flat[key] = in.Measure
			}
		}
	}
}

// Ablation: exception-only retention (the paper's Framework 4.1) vs full
// materialization of every cuboid — the memory blowup the framework avoids.
func BenchmarkAblationExceptionRetention(b *testing.B) {
	b.ReportAllocs()
	ds := benchDataset(b, gen.Spec{Dims: 3, Levels: 2, Fanout: 8, Tuples: 10000}, 13)
	thr := exception.Global(ds.CalibrateThreshold(0.01))
	b.Run("exception-only", func(b *testing.B) {
		b.ReportAllocs()
		var last *core.Result
		for n := 0; n < b.N; n++ {
			res, err := core.MOCubing(ds.Schema, ds.Inputs, thr)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Stats.CellsRetained), "retained/op")
	})
	b.Run("full-materialization", func(b *testing.B) {
		b.ReportAllocs()
		// Threshold 0 makes every cell exceptional: everything is retained.
		full := exception.Global(0)
		var last *core.Result
		for n := 0; n < b.N; n++ {
			res, err := core.MOCubing(ds.Schema, ds.Inputs, full)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Stats.CellsRetained), "retained/op")
	})
}

// Ablation: workload skew. Zipf-hot cells share H-tree prefixes, shrinking
// the tree and the m-layer relative to a uniform draw of the same size.
func BenchmarkAblationSkew(b *testing.B) {
	b.ReportAllocs()
	for _, skew := range []float64{0, 0.5, 1.0} {
		ds, err := gen.Generate(gen.Config{
			Spec: gen.Spec{Dims: 3, Levels: 2, Fanout: 8, Tuples: 20000},
			Seed: 15, Skew: skew,
		})
		if err != nil {
			b.Fatal(err)
		}
		thr := exception.Global(ds.CalibrateThreshold(0.01))
		b.Run(fmt.Sprintf("skew=%.1f", skew), func(b *testing.B) {
			b.ReportAllocs()
			var last *core.Result
			for n := 0; n < b.N; n++ {
				res, err := core.MOCubing(ds.Schema, ds.Inputs, thr)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Stats.TreeLeaves), "leaves/op")
			reportCubing(b, last)
		})
	}
}

// Ablation: tilt frame vs registering every fine-granularity unit — the
// Example 3 space saving, measured as retained slots after a year of
// quarter-hours.
func BenchmarkAblationTiltVsFullFrame(b *testing.B) {
	b.ReportAllocs()
	const quartersPerYear = 366 * 24 * 4
	b.Run("tilt-frame", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			f := tilt.MustNew(tilt.CalendarLevels(), 0)
			for q := 0; q < quartersPerYear/32; q++ { // scaled year
				for m := 0; m < 15; m++ {
					if err := f.Add(int64(q*15+m), float64(m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(f.SlotsInUse()), "slots/op")
		}
	})
	b.Run("full-frame", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			slots := make([]regression.ISB, 0, quartersPerYear/32)
			acc := regression.NewAccumulator(0)
			for q := 0; q < quartersPerYear/32; q++ {
				for m := 0; m < 15; m++ {
					if err := acc.Add(int64(q*15+m), float64(m)); err != nil {
						b.Fatal(err)
					}
				}
				isb, err := acc.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				slots = append(slots, isb)
				acc.Reset(int64((q + 1) * 15))
			}
			b.ReportMetric(float64(len(slots)), "slots/op")
		}
	})
}
