package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// benchSchema matches the root ShardedIngest benchmark shape: 8×8 o-layer
// (64 partitions), 64×64 m-layer.
func benchSchema(b *testing.B) *cube.Schema {
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

func benchCells() [][]int32 {
	cells := make([][]int32, 256)
	for i := range cells {
		cells[i] = []int32{int32(i % 64), int32((i*7 + i/64) % 64)}
	}
	return cells
}

func benchEngine(b *testing.B, shards, ticksPerUnit int) *stream.Engine {
	b.Helper()
	eng, err := stream.NewEngine(stream.Config{
		Schema:           benchSchema(b),
		TicksPerUnit:     ticksPerUnit,
		Threshold:        exception.Global(0.05),
		PublishSnapshots: true,
		Shards:           shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// BenchmarkServeQuery measures pure query cost per endpoint against a
// quiescent engine holding one published unit.
func BenchmarkServeQuery(b *testing.B) {
	eng := benchEngine(b, 4, 64)
	cells := benchCells()
	for tick := int64(0); tick <= 64; tick++ {
		for i, m := range cells {
			if _, err := eng.Ingest(m, tick, float64(tick)*float64(i%7+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	srv := New(eng, eng.Snapshot().Result.Schema)
	for _, path := range []string{
		"/v1/exceptions?k=16",
		"/v1/alerts",
		"/v1/summary",
		"/v1/trend?members=0,0&k=1",
		"/v1/supporters?members=0,0",
	} {
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			req := httptest.NewRequest("GET", path, nil)
			for n := 0; n < b.N; n++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkServeQueryUnderIngest is the acceptance benchmark: 4 shards
// ingest at full rate (units closing continuously) while the timed loop
// serves /v1/exceptions from snapshots. It reports p50/p99 query latency
// alongside the concurrent ingest rate.
func BenchmarkServeQueryUnderIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			eng := benchEngine(b, shards, 64)
			cells := benchCells()
			srv := New(eng, benchSchema(b))

			stop := make(chan struct{})
			ingested := new(atomic.Int64)
			ingestDone := make(chan struct{})
			go func() {
				defer close(ingestDone)
				n := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					tick := int64(n / len(cells))
					if _, err := eng.Ingest(cells[n%len(cells)], tick, float64(n%13)); err != nil {
						b.Error(err)
						return
					}
					n++
					ingested.Add(1)
				}
			}()
			// Wait for the first published unit (64 ticks × 256 cells).
			for eng.Snapshot() == nil {
				time.Sleep(time.Millisecond)
			}

			req := httptest.NewRequest("GET", "/v1/exceptions?k=16", nil)
			lat := make([]time.Duration, 0, b.N)
			start := time.Now()
			startRecords := ingested.Load()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				t0 := time.Now()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				lat = append(lat, time.Since(t0))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			records := ingested.Load() - startRecords
			close(stop)
			<-ingestDone

			b.ReportMetric(float64(percentile(lat, 0.50).Nanoseconds()), "p50-ns/query")
			b.ReportMetric(float64(percentile(lat, 0.99).Nanoseconds()), "p99-ns/query")
			if records > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(records), "concurrent-ingest-ns/record")
			}
		})
	}
}

// BenchmarkForecastQuery measures the predictive read path per GET
// /v1/forecast: the Theorem 3.3 fold over the cell's trailing history
// plus the forward evaluation and JSON encoding. Forecasting is
// query-time only by construction — no per-record state is maintained
// for it, so its ingest cost is zero; BenchmarkSnapshotPublish is the
// unchanged ingest-side price.
func BenchmarkForecastQuery(b *testing.B) {
	eng := benchEngine(b, 4, 8)
	cells := benchCells()
	// 16 closed units of linear ramp: a 16-point history to fold per query.
	for tick := int64(0); tick <= 16*8; tick++ {
		for i, m := range cells {
			if _, err := eng.Ingest(m, tick, float64(tick)*float64(i%7+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	srv := New(eng, eng.Snapshot().Result.Schema)
	for _, path := range []string{
		"/v1/forecast?members=0,0&horizon=64",
		"/v1/forecast?members=0,0&horizon=64&threshold=1e9",
		"/v1/forecast?members=0,0&k=4&horizon=64&threshold=1e9",
	} {
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			req := httptest.NewRequest("GET", path, nil)
			for n := 0; n < b.N; n++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkChangeScan measures GET /v1/changes against a tilted engine:
// one adjacent-level slope comparison per retained cell per level pair,
// ranked and truncated. Like the forecast, the scan reads the published
// snapshot — ingest never pays for it. The executor a server keeps for a
// snapshot scans it once, for the first changes request, so the HTTP legs
// time the answer from that scan; the first-query leg times the scan.
func BenchmarkChangeScan(b *testing.B) {
	eng, err := stream.NewEngine(stream.Config{
		Schema:           benchSchema(b),
		TicksPerUnit:     8,
		Threshold:        exception.Global(0.05),
		PublishSnapshots: true,
		TiltLevels: []tilt.Level{
			{Name: "quarter", Multiple: 1, Slots: 4},
			{Name: "hour", Multiple: 4, Slots: 6},
			{Name: "day", Multiple: 2, Slots: 3},
		},
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	cells := benchCells()
	// 32 closed units fill every tilt level; the alternating value keeps
	// recent and long slopes apart so the scan scores real divergences.
	for tick := int64(0); tick <= 32*8; tick++ {
		for i, m := range cells {
			v := float64(tick) * float64(i%7+1)
			if (tick/64)%2 == 1 {
				v = -v
			}
			if _, err := eng.Ingest(m, tick, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	srv := New(eng, eng.Snapshot().Result.Schema)
	b.Run("first-query", func(b *testing.B) {
		b.ReportAllocs()
		snap := eng.Snapshot()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			ex, err := query.NewExecutor(snap.Result.Schema, snap)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ex.Execute(query.ChangesRequest{K: 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, path := range []string{
		"/v1/changes?k=16",
		"/v1/changes",
	} {
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			req := httptest.NewRequest("GET", path, nil)
			for n := 0; n < b.N; n++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkSnapshotPublish isolates the cost snapshot publication adds to
// a unit boundary (history copy + alert sort), the price of the lock-free
// read path.
func BenchmarkSnapshotPublish(b *testing.B) {
	cells := benchCells()
	for _, publish := range []bool{false, true} {
		b.Run(fmt.Sprintf("publish=%v", publish), func(b *testing.B) {
			b.ReportAllocs()
			eng, err := stream.NewEngine(stream.Config{
				Schema:           benchSchema(b),
				TicksPerUnit:     8,
				Threshold:        exception.Global(0.05),
				PublishSnapshots: publish,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tick := int64(n / len(cells))
				if _, err := eng.Ingest(cells[n%len(cells)], tick, float64(n%13)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
