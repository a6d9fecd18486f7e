package regcube

// Micro-benchmarks of the substrate operations, the sharded-engine
// benchmarks the CI perf canary names, and ablation benches for the design
// decisions listed in DESIGN.md §5 (#6 and #7 live in internal/core, beside
// the reference kernel they time). The paper's Figures 8–10 are swept by
// cmd/benchfig; the stream pipeline end to end and layer by layer is timed
// by benchmark/.
//
// Custom metrics reported per op:
//   cells/op  — cells aggregated (the paper's computation cost)
//   peakMB/op — peak resident estimate (the paper's memory-usage panels)

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
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

// Pure accumulate path, record by record: no unit ever closes, and every
// record is accumulated before Ingest returns, on the caller's goroutine at
// every shard count.
func BenchmarkShardedIngest(b *testing.B) {
	schema := shardedBenchSchema(b)
	cells := shardedBenchCells()
	cfg := stream.Config{
		Schema:       schema,
		TicksPerUnit: 1 << 30,
		Threshold:    exception.Global(1e18), // no alerts: isolate ingest
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			cfg.Shards = shards
			eng, err := stream.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := eng.Ingest(cells[n%len(cells)], int64(n/len(cells)), float64(n%13)); err != nil {
					b.Fatal(err)
				}
			}
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
			eng, err := stream.NewEngine(stream.Config{
				Schema:       schema,
				TicksPerUnit: math.MaxInt32,
				Threshold:    exception.Global(1e18),
				Shards:       leg.shards,
			})
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
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame.Len()), "ns/rec")
		})
	}
}

// Alert-heavy unit close (DESIGN.md §6, "what a unit close costs"): 5 000
// seeded cells of the 262 144-cell D3L3C4 m-layer with per-unit slopes
// ~ N(0,1) against threshold 1, so every one of the 64 o-cells alerts and
// about a third of the computed cells are retained as their supporters —
// the streaming form of Fig 8-10 and the shape of the suite's cube_heavy
// workload. Ingest runs outside the timer; one op is one unit's close:
// harvest, sort, cubing, supporter index, alerts, shard merge. allocs/op
// still falls as -benchtime grows: every o-cell's frame gains a slot per
// unit and its slot list grows by append, which a one-slot chain would
// hide. Compare runs at one -benchtime.
func BenchmarkCloseUnitAlertHeavy(b *testing.B) {
	const cells, ticksPerUnit = 5000, 10
	schema, members := alertHeavyCells(b, cells)
	cfg := stream.Config{Schema: schema, TicksPerUnit: ticksPerUnit, Threshold: exception.Global(1)}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			cfg.Shards = shards
			eng, err := stream.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// A four-unit cycle of slopes, the same for every shard count.
			srng := rand.New(rand.NewSource(13))
			var cycle [4][cells]float64
			for u := range cycle {
				for i := range cycle[u] {
					cycle[u][i] = srng.NormFloat64()
				}
			}
			// feed ingests unit n: every cell on its slope of the cycle.
			feed := func(n int) {
				slopes := &cycle[n%len(cycle)]
				for t := 0; t < ticksPerUnit; t++ {
					tick := int64(n*ticksPerUnit + t)
					for i, m := range members {
						if _, err := eng.Ingest(m, tick, 5+slopes[i]*float64(t)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			// One untimed cycle first: the first closes grow the buffers
			// the engine and its workspace keep, which later closes reuse.
			for n := range len(cycle) {
				feed(n)
				if _, err := eng.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			var alerts, supporters int
			b.ResetTimer()
			for n := len(cycle); n < len(cycle)+b.N; n++ {
				b.StopTimer()
				feed(n)
				b.StartTimer()
				ur, err := eng.Flush()
				if err != nil {
					b.Fatal(err)
				}
				alerts = len(ur.Alerts)
				supporters = 0
				for _, al := range ur.Alerts {
					if al.Kind == stream.SlopeException {
						for range ur.Result.Supporters(al.Cell) {
							supporters++
						}
					}
				}
			}
			b.ReportMetric(float64(alerts), "alerts/op")
			b.ReportMetric(float64(supporters), "supporters/op")
		})
	}
}

// Popular-path cubing (Algorithm 2, the batch form: cmd/regcube and
// cmd/benchfig run it) on the alert-heavy unit's cells with per-cell
// slopes ~ N(0,1) against threshold 1, drilling the default path. One op
// is one PopularPath call: leaf fold, path-key sort, path roll-up and the
// drill below the exceptions.
func BenchmarkPopularPath(b *testing.B) {
	schema, members := alertHeavyCells(b, 5000)
	srng := rand.New(rand.NewSource(13))
	inputs := make([]core.Input, len(members))
	for i, m := range members {
		inputs[i] = core.Input{Members: m, Measure: regression.ISB{Tb: 0, Te: 9, Base: 5, Slope: srng.NormFloat64()}}
	}
	path := cube.NewLattice(schema).DefaultPath()
	b.ReportAllocs()
	b.ResetTimer()
	var last *core.Result
	for n := 0; n < b.N; n++ {
		res, err := core.PopularPath(schema, inputs, exception.Global(1), path)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.NumExceptions()), "exc/op")
	b.ReportMetric(float64(last.Stats.TreeNodes), "nodes/op")
}

// Delta cubing (§4.3's "current quarter vs. the previous one", the batch
// form: the facade and examples/deltawatch run it) over two adjacent
// Fig-8-shaped windows, D3L3C10T10K each, flagging slope changes of at
// least 1. One op is one DeltaCubing call: both windows' leaf folds and,
// per cuboid, one m/o pass per window and the merge join of the two.
func BenchmarkDeltaCubing(b *testing.B) {
	spec := gen.Spec{Dims: 3, Levels: 3, Fanout: 10, Tuples: 10000}
	prev, cur := benchDataset(b, spec, 1), benchDataset(b, spec, 2)
	for i := range cur.Inputs {
		cur.Inputs[i].Measure.Tb += 10
		cur.Inputs[i].Measure.Te += 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *core.DeltaResult
	for n := 0; n < b.N; n++ {
		res, err := core.DeltaCubing(prev.Schema, cur.Inputs, prev.Inputs, exception.Delta{MinSlopeChange: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(len(last.Exceptions)), "exc/op")
	b.ReportMetric(float64(last.Stats.CellsComputed), "cells/op")
}

// alertHeavyCells returns the D3L3C4 schema and the first n of the alert-
// heavy unit's seeded m-cells.
func alertHeavyCells(tb testing.TB, n int) (*cube.Schema, [][]int32) {
	tb.Helper()
	schema, err := gen.Spec{Dims: 3, Levels: 3, Fanout: 4, Tuples: n}.StreamSchema()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	members := make([][]int32, n)
	for i, idx := range rng.Perm(64 * 64 * 64)[:n] {
		members[i] = []int32{int32(idx % 64), int32(idx / 64 % 64), int32(idx / 4096)}
	}
	return schema, members
}

// TestMergeCostFlatInCells merges the two parts of the alert-heavy unit —
// two engines fed by the two-way partitioner, as two cluster nodes or two
// shards split it — at a quarter of its cells and at all of them. All 64
// o-cells have data at both sizes and the merge touches no cell, so the
// bytes it allocates must not grow with the cells; a merge that copies the
// parts' cells into one table allocates about 4.5 MB at 5 000.
func TestMergeCostFlatInCells(t *testing.T) {
	const ticksPerUnit = 10
	mergeBytes := func(cells int) uint64 {
		schema, members := alertHeavyCells(t, cells)
		part, err := stream.NewPartitioner(schema, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stream.Config{Schema: schema, TicksPerUnit: ticksPerUnit, Threshold: exception.Global(1), PublishSnapshots: true}
		nodes := make([]*stream.Engine, 2)
		for i := range nodes {
			if nodes[i], err = stream.NewEngine(cfg); err != nil {
				t.Fatal(err)
			}
			defer nodes[i].Close()
		}
		srng := rand.New(rand.NewSource(13))
		slopes := make([]float64, cells)
		for i := range slopes {
			slopes[i] = srng.NormFloat64()
		}
		for tick := range int64(ticksPerUnit) {
			for i, m := range members {
				sid, err := part.Route(m)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := nodes[sid].Ingest(m, tick, 5+slopes[i]*float64(tick)); err != nil {
					t.Fatal(err)
				}
			}
		}
		snaps := make([]*stream.Snapshot, len(nodes))
		cellsRetained := 0
		for i, e := range nodes {
			if _, err := e.AdvanceTo(1); err != nil {
				t.Fatal(err)
			}
			snaps[i] = e.Snapshot()
			cellsRetained += snaps[i].Result.NumOCells() + snaps[i].Result.NumExceptions()
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			merged, err := stream.MergeSnapshots(schema, snaps)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged.Result.NumOCells() + merged.Result.NumExceptions(); got != cellsRetained {
				t.Fatalf("%d cells: merged result holds %d cells, its parts %d", cells, got, cellsRetained)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d cells (%d retained): merge allocates %d B", cells, cellsRetained, least)
		return least
	}
	quarter, whole := mergeBytes(1250), mergeBytes(5000)
	if whole > quarter+quarter/4+4<<10 {
		t.Fatalf("merge allocates %d B at 5 000 cells, %d B at 1 250: it grows with the cells", whole, quarter)
	}
}

// --- Ablation benches (DESIGN.md §5) --------------------------------------

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
