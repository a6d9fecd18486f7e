package alert

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// historyFrame wraps contiguous per-unit points as the one-level frame of
// o-cell k the engine's default chain publishes.
func historyFrame(k cube.CellKey, pts []stream.HistoryPoint) stream.CellFrame {
	slots := make([]tilt.Slot, len(pts))
	for i, p := range pts {
		slots[i] = tilt.Slot{Unit: int64(i), ISB: p.ISB}
	}
	f := stream.CellFrame{Base: pts[0].Unit, Members: k.Members[:k.Cuboid.NumDims()]}
	for d := range f.Members {
		f.Levels = append(f.Levels, k.Cuboid.Level(d))
	}
	f.Frame.Levels = []tilt.LevelStateRec{{Next: int64(len(slots)), Slots: slots}}
	return f
}

// fsnap fabricates a unit snapshot whose frames hold exact per-unit
// fits of a linear ramp z = slope·t at 2 ticks per unit, from unit 0
// through `unit` — the shape the engine publishes for a steadily rising
// cell. A zero-length slope map drops the frames entirely (vanished cell).
func fsnap(schema *cube.Schema, unit int64, slopes map[cube.CellKey]float64) *stream.Snapshot {
	s := &stream.Snapshot{Unit: unit, UnitsDone: unit + 1}
	if len(slopes) > 0 {
		for k, slope := range slopes {
			pts := make([]stream.HistoryPoint, unit+1)
			for u := int64(0); u <= unit; u++ {
				pts[u] = stream.HistoryPoint{
					Unit: u,
					ISB:  regression.ISB{Tb: 2 * u, Te: 2*u + 1, Base: 0, Slope: slope},
				}
			}
			s.Frames = append(s.Frames, historyFrame(k, pts))
		}
		// Snapshots list their frames in coordinate order.
		slices.SortFunc(s.Frames, func(a, b stream.CellFrame) int { return cube.CompareKeys(a.Key(), b.Key()) })
	}
	return s
}

func forecastManager(t testing.TB, budget int64, threshold float64) (*Manager, *cube.Schema) {
	t.Helper()
	schema := testSchema(t)
	m, err := New(Config{
		Schema: schema, Warn: 1, Crit: 2, HoldUnits: 2,
		ForecastBudget: budget, ForecastThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, schema
}

// TestForecastLifecycle walks a cell ramping toward the threshold: at
// slope 10 toward 1000, the time-to-threshold at unit u is 99−2u ticks,
// so a 5-tick budget goes warn (≤10 ticks out) at unit 45 and crit
// (≤5 ticks) at unit 47, each exactly once.
func TestForecastLifecycle(t *testing.T) {
	m, schema := forecastManager(t, 5, 1000)
	o := oKey(schema, 0, 0)
	// Stop at unit 49 (ttt = 1 tick): unit 50 would cross the threshold,
	// and a crossed forecast reads as OK — post-breach is the slope
	// topics' signal.
	for u := int64(40); u <= 49; u++ {
		m.Observe(fsnap(schema, u, map[cube.CellKey]float64{o: 10}))
	}
	want := []evRow{
		{45, TopicForecast, o, LevelOK, LevelWarn},
		{47, TopicForecast, o, LevelWarn, LevelCrit},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
	st := m.Stats()
	if st.Events[LevelWarn][2] != 1 || st.Events[LevelCrit][2] != 1 {
		t.Fatalf("forecast counters = %+v", st.Events)
	}
	if st.Events[LevelWarn][0] != 0 || st.Events[LevelCrit][0] != 0 {
		t.Fatalf("forecast events leaked into the olayer column: %+v", st.Events)
	}

	// The cell vanishes from the stream: tracked forecast state observes
	// OK, and the de-escalation fires after HoldUnits, like the slope
	// topics.
	m.Observe(fsnap(schema, 50, nil))
	m.Observe(fsnap(schema, 51, nil))
	want = append(want, evRow{51, TopicForecast, o, LevelCrit, LevelOK})
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("after vanish: events %+v, want %+v", got, want)
	}
}

// TestForecastAwayFromThresholdStaysQuiet: a falling trend never crosses
// an above-current threshold, and a flat one never crosses anything.
func TestForecastAwayFromThresholdStaysQuiet(t *testing.T) {
	m, schema := forecastManager(t, 5, 1000)
	o := oKey(schema, 0, 0)
	for u := int64(0); u <= 20; u++ {
		m.Observe(fsnap(schema, u, map[cube.CellKey]float64{o: -10}))
	}
	for u := int64(21); u <= 30; u++ {
		m.Observe(fsnap(schema, u, map[cube.CellKey]float64{o: 0}))
	}
	if evs := m.Events(0); len(evs) != 0 {
		t.Fatalf("non-crossing trends emitted %+v", rows(evs))
	}
}

// TestForecastAndSlopeTopicsIndependent: the same o-cell can be at
// forecast-crit and slope-warn simultaneously — the two topics keep
// separate lifecycle states and both emit.
func TestForecastAndSlopeTopicsIndependent(t *testing.T) {
	m, schema := forecastManager(t, 5, 1000)
	o := oKey(schema, 0, 0)
	for u := int64(46); u <= 48; u++ {
		s := fsnap(schema, u, map[cube.CellKey]float64{o: 10})
		// The slope topics read Result; 1.5 sits in the warn band.
		s.Result = snap(schema, u, map[cube.CellKey]float64{o: 1.5}, nil).Result
		m.Observe(s)
	}
	got := rows(m.Events(0))
	want := []evRow{
		{46, TopicOLayer, o, LevelOK, LevelWarn},
		{46, TopicForecast, o, LevelOK, LevelWarn},
		{47, TopicForecast, o, LevelWarn, LevelCrit},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
}

// TestForecastConfigValidation: a non-finite threshold is rejected when
// the forecast topic is enabled, tolerated when it is off.
func TestForecastConfigValidation(t *testing.T) {
	schema := testSchema(t)
	base := Config{Schema: schema, Warn: 1, Crit: 2}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := base
		cfg.ForecastBudget, cfg.ForecastThreshold = 10, bad
		if _, err := New(cfg); err == nil {
			t.Fatalf("New accepted forecast threshold %g", bad)
		}
	}
	cfg := base
	cfg.ForecastThreshold = math.NaN() // budget 0: forecast off, field ignored
	if _, err := New(cfg); err != nil {
		t.Fatalf("New rejected disabled forecast config: %v", err)
	}
}

// TestForecastDeterministicAcrossShardCounts drives real engines at
// 1/4/7 shards through a ramp that crosses the forecast budget and
// asserts the full event sequence — slope and forecast topics — is
// bitwise identical, inheriting the snapshot determinism property.
func TestForecastDeterministicAcrossShardCounts(t *testing.T) {
	schema := testSchema(t)
	cfg := stream.Config{
		Schema:       schema,
		TicksPerUnit: 4,
		Threshold:    exception.Global(0.5),
	}
	run := func(shards int) []Event {
		m, err := New(Config{
			Schema: schema, Warn: 5, Crit: 40, HoldUnits: 2,
			ForecastBudget: 6, ForecastThreshold: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = shards
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for tick := int64(0); tick < 48; tick++ {
			for a := int32(0); a < 4; a++ {
				for b := int32(0); b < 4; b++ {
					v := float64(tick) * float64(a+2*b+1)
					closed, err := eng.Ingest([]int32{a, b}, tick, v)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range closed {
						m.Observe(s)
					}
				}
			}
		}
		last, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(last)
		return m.Events(0)
	}

	base := run(1)
	sawForecast := false
	for _, e := range base {
		if e.Topic == TopicForecast {
			sawForecast = true
			break
		}
	}
	if !sawForecast {
		t.Fatalf("fixture never fired a forecast event: %+v", rows(base))
	}
	for _, shards := range []int{4, 7} {
		if got := run(shards); !reflect.DeepEqual(got, base) {
			t.Fatalf("%d shards emitted %+v\nwant (1 shard) %+v", shards, rows(got), rows(base))
		}
	}
}
