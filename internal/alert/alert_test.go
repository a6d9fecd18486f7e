package alert

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/regression"
	"repro/internal/stream"
)

func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	ha, err := cube.NewFanoutHierarchy("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := cube.NewFanoutHierarchy("B", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := cube.NewSchema(
		cube.Dimension{Name: "A", Hierarchy: ha, MLevel: 2, OLevel: 1},
		cube.Dimension{Name: "B", Hierarchy: hb, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func testManager(t testing.TB, hold int) (*Manager, *cube.Schema) {
	t.Helper()
	schema := testSchema(t)
	m, err := New(Config{Schema: schema, Warn: 1, Crit: 2, HoldUnits: hold})
	if err != nil {
		t.Fatal(err)
	}
	return m, schema
}

// snap fabricates a unit snapshot carrying the given o-layer and drill
// slopes. The drill cells sit at the m-layer and double as exception entries,
// exactly where the engine puts drill-down supporters; a drill cell's
// o-cell the caller did not give is retained flat, as the engine retains
// every o-cell with data.
func snap(schema *cube.Schema, unit int64, ocells map[cube.CellKey]float64, drill map[cube.CellKey]float64) *stream.Snapshot {
	if len(ocells) == 0 && len(drill) == 0 {
		return &stream.Snapshot{Unit: unit, UnitsDone: unit + 1}
	}
	ocells = maps.Clone(ocells)
	if ocells == nil {
		ocells = map[cube.CellKey]float64{}
	}
	for k := range drill {
		o, err := cube.RollUpKey(schema, k, schema.OLayer())
		if err != nil {
			panic(err)
		}
		if _, ok := ocells[o]; !ok {
			ocells[o] = 0
		}
	}
	var oLayer, exceptions []core.Cell
	for k, s := range ocells {
		c := core.Cell{Key: k, ISB: regression.ISB{Slope: s}}
		oLayer = append(oLayer, c)
		if exception.IsException(c.ISB, 1) {
			exceptions = append(exceptions, c)
		}
	}
	for k, s := range drill {
		exceptions = append(exceptions, core.Cell{Key: k, ISB: regression.ISB{Slope: s}})
	}
	slices.SortFunc(oLayer, core.CompareCells)
	slices.SortFunc(exceptions, core.CompareCells)
	res, err := core.NewResult(schema, oLayer, exceptions, core.Stats{})
	if err != nil {
		panic(err)
	}
	return &stream.Snapshot{Unit: unit, UnitsDone: unit + 1, Result: res}
}

func oKey(schema *cube.Schema, a, b int32) cube.CellKey {
	return cube.NewCellKey(schema.OLayer(), a, b)
}

func mKey(schema *cube.Schema, a, b int32) cube.CellKey {
	return cube.NewCellKey(schema.MLayer(), a, b)
}

// seqOf compresses events for table assertions.
type evRow struct {
	Unit  int64
	Topic string
	Cell  cube.CellKey
	From  Level
	To    Level
}

func rows(evs []Event) []evRow {
	out := make([]evRow, len(evs))
	for i, e := range evs {
		out[i] = evRow{e.Unit, e.Topic, e.Cell, e.From, e.To}
	}
	return out
}

func TestLifecycleEscalationAndDedup(t *testing.T) {
	m, schema := testManager(t, 2)
	o := oKey(schema, 0, 0)

	m.Observe(snap(schema, 0, map[cube.CellKey]float64{o: 0.5}, nil))  // ok
	m.Observe(snap(schema, 1, map[cube.CellKey]float64{o: 1.5}, nil))  // ok->warn
	m.Observe(snap(schema, 2, map[cube.CellKey]float64{o: 1.7}, nil))  // warn (dedup)
	m.Observe(snap(schema, 3, map[cube.CellKey]float64{o: -2.5}, nil)) // warn->crit (|slope|)
	m.Observe(snap(schema, 4, map[cube.CellKey]float64{o: 2.5}, nil))  // crit (dedup)

	want := []evRow{
		{1, TopicOLayer, o, LevelOK, LevelWarn},
		{3, TopicOLayer, o, LevelWarn, LevelCrit},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
}

func TestLifecycleFlapSuppression(t *testing.T) {
	m, schema := testManager(t, 2)
	o := oKey(schema, 0, 0)

	feed := []float64{2.5, 1.5, 2.5, 1.5, 0.5, 0.2, 0.1}
	// unit 0: ok->crit fires. unit 1: warn, hold 1. unit 2: crit again —
	// hold resets with no event (flap suppressed). unit 3: warn, hold 1.
	// unit 4: ok, hold 2 -> de-escalation fires crit->ok (the level the
	// hold expired at). units 5,6: ok, state dropped, silence.
	for u, s := range feed {
		m.Observe(snap(schema, int64(u), map[cube.CellKey]float64{o: s}, nil))
	}
	want := []evRow{
		{0, TopicOLayer, o, LevelOK, LevelCrit},
		{4, TopicOLayer, o, LevelCrit, LevelOK},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
	if n := len(m.states); n != 0 {
		t.Fatalf("%d states tracked after full recovery", n)
	}
}

func TestLifecycleVanishedCellRecovers(t *testing.T) {
	m, schema := testManager(t, 1)
	o := oKey(schema, 1, 1)

	m.Observe(snap(schema, 0, map[cube.CellKey]float64{o: 3}, nil)) // ok->crit
	m.Observe(snap(schema, 1, nil, nil))                            // empty unit: hold 1 of 1 -> crit->ok
	want := []evRow{
		{0, TopicOLayer, o, LevelOK, LevelCrit},
		{1, TopicOLayer, o, LevelCrit, LevelOK},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
}

func TestLifecycleAncestorInhibition(t *testing.T) {
	m, schema := testManager(t, 1)
	o := oKey(schema, 0, 0)   // o-cell (0,0) at level 1
	d := mKey(schema, 1, 1)   // m-cell under it (1/2=0, 1/2=0)
	far := mKey(schema, 2, 2) // m-cell under o-cell (1,1) — not inhibited

	// Unit 0: ancestor fires crit; both drill cells cross warn. The
	// descendant under the firing ancestor is inhibited; the far one is
	// not.
	m.Observe(snap(schema, 0, map[cube.CellKey]float64{o: 3},
		map[cube.CellKey]float64{d: 1.5, far: 1.5}))
	// Unit 1: ancestor recovers (hold 1); d still warm — with the
	// inhibition lifted it now escalates from its frozen OK state.
	m.Observe(snap(schema, 1, map[cube.CellKey]float64{o: 0.1},
		map[cube.CellKey]float64{d: 1.5, far: 1.5}))

	want := []evRow{
		{0, TopicOLayer, o, LevelOK, LevelCrit},
		{0, TopicDrillDown, far, LevelOK, LevelWarn},
		{1, TopicOLayer, o, LevelCrit, LevelOK},
		{1, TopicDrillDown, d, LevelOK, LevelWarn},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
}

func TestLifecycleInhibitionFreezesNoStaleRecovery(t *testing.T) {
	m, schema := testManager(t, 1)
	o := oKey(schema, 0, 0)
	d := mKey(schema, 0, 0)

	// The drill cell fires first, alone.
	m.Observe(snap(schema, 0, map[cube.CellKey]float64{o: 0.1},
		map[cube.CellKey]float64{d: 1.5}))
	// Ancestor fires; drill cell drops to ok underneath it. Frozen: no
	// recovery event while inhibited, however many units pass.
	m.Observe(snap(schema, 1, map[cube.CellKey]float64{o: 3}, nil))
	m.Observe(snap(schema, 2, map[cube.CellKey]float64{o: 3}, nil))
	// Ancestor clears; the drill cell's recovery finally emits.
	m.Observe(snap(schema, 3, map[cube.CellKey]float64{o: 0.1}, nil))
	m.Observe(snap(schema, 4, map[cube.CellKey]float64{o: 0.1}, nil))

	want := []evRow{
		{0, TopicDrillDown, d, LevelOK, LevelWarn},
		{1, TopicOLayer, o, LevelOK, LevelCrit},
		{3, TopicOLayer, o, LevelCrit, LevelOK},
		{3, TopicDrillDown, d, LevelWarn, LevelOK},
	}
	if got := rows(m.Events(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
}

func TestEventsRingCaps(t *testing.T) {
	schema := testSchema(t)
	m, err := New(Config{Schema: schema, Warn: 1, Crit: 2, HoldUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := oKey(schema, 0, 0)
	for u := int64(0); u < eventRing+6; u++ {
		s := 0.0
		if u%2 == 0 {
			s = 3.0
		}
		m.Observe(snap(schema, u, map[cube.CellKey]float64{o: s}, nil))
	}
	evs := m.Events(0)
	if len(evs) != eventRing {
		t.Fatalf("ring holds %d events, want %d", len(evs), eventRing)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not contiguous: %+v", evs)
		}
	}
	if got := m.Events(2); len(got) != 2 || got[1].Seq != evs[eventRing-1].Seq {
		t.Fatalf("Events(2) = %+v", got)
	}
}

// TestDeterministicAcrossShardCounts drives real engines at 1, 4, and 7
// shards, observes every snapshot they return, and demands bit-identical
// event sequences — the acceptance criterion that makes the alert
// pipeline a pure function of the stream.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	schema := testSchema(t)
	cfg := stream.Config{
		Schema:       schema,
		TicksPerUnit: 4,
		Threshold:    exception.Global(0.5),
	}
	run := func(shards int) []Event {
		m, err := New(Config{Schema: schema, Warn: 1, Crit: 4, HoldUnits: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = shards
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Slopes ramp with the tick so cells cross warn, then crit, then
		// fall back — several full lifecycles across 10 units.
		for tick := int64(0); tick < 40; tick++ {
			phase := float64(1)
			if (tick/8)%2 == 1 {
				phase = -0.2 // flat units: slopes collapse toward ok
			}
			for a := int32(0); a < 4; a++ {
				for b := int32(0); b < 4; b++ {
					v := phase * float64(tick) * float64(a+2*b+1) / 4
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
	if len(base) == 0 {
		t.Fatal("stream produced no alert events; thresholds too high for the fixture")
	}
	for _, shards := range []int{4, 7} {
		got := run(shards)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%d shards emitted %+v\nwant (1 shard) %+v", shards, rows(got), rows(base))
		}
	}
}

func TestLogHandlerAndTopicRouting(t *testing.T) {
	m, schema := testManager(t, 1)
	var buf strings.Builder
	m.Handle(&LogHandler{Schema: schema, W: &buf}, TopicOLayer)

	o := oKey(schema, 0, 0)
	d := mKey(schema, 0, 1)
	// The drill event must not reach the olayer-only handler. Keep the
	// o-cell quiet so the drill cell is uninhibited.
	m.Observe(snap(schema, 0, map[cube.CellKey]float64{o: 3}, nil))
	m.Observe(snap(schema, 1, map[cube.CellKey]float64{o: 0.1},
		map[cube.CellKey]float64{d: 1.5}))
	m.Close()

	out := buf.String()
	if !strings.Contains(out, "topic=olayer") || !strings.Contains(out, "ok->crit") {
		t.Fatalf("log output missing o-layer event:\n%s", out)
	}
	if strings.Contains(out, "topic=drill") {
		t.Fatalf("olayer-routed handler saw a drill event:\n%s", out)
	}
}

func TestWebhookRetriesThenDelivers(t *testing.T) {
	var calls atomic.Int64
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		buf := make([]byte, 4096)
		n, _ := r.Body.Read(buf)
		got.Store(string(buf[:n]))
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	schema := testSchema(t)
	m, err := New(Config{Schema: schema, Warn: 1, Crit: 2, HoldUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Handle(&WebhookHandler{Schema: schema, URL: srv.URL})
	m.Observe(snap(schema, 0, map[cube.CellKey]float64{oKey(schema, 0, 0): 3}, nil))
	m.Close() // drains the queue, retries included

	if n := calls.Load(); n != 3 {
		t.Fatalf("webhook called %d times, want 3 (two failures + success)", n)
	}
	st := m.Stats()
	if st.HandlerRetries != 2 {
		t.Fatalf("counted %d retries, want 2", st.HandlerRetries)
	}
	body, _ := got.Load().(string)
	for _, want := range []string{`"topic":"olayer"`, `"to":"crit"`, `"from":"ok"`, `"unit":0`} {
		if !strings.Contains(body, want) {
			t.Fatalf("webhook body %q missing %q", body, want)
		}
	}
	if st.Events[LevelCrit][0] != 1 {
		t.Fatalf("crit/olayer counter = %d, want 1", st.Events[LevelCrit][0])
	}
}

// TestSlowWebhookNeverBlocksObserve wedges the webhook endpoint and checks
// Observe completes instantly anyway, shedding into the drop counter.
func TestSlowWebhookNeverBlocksObserve(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	schema := testSchema(t)
	m, err := New(Config{Schema: schema, Warn: 1, Crit: 2, HoldUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Handle(&WebhookHandler{Schema: schema, URL: srv.URL, Client: &http.Client{Timeout: time.Minute}})

	o := oKey(schema, 0, 0)
	start := time.Now()
	// Alternate crit/ok so every unit emits; far more events than the
	// queue holds.
	for u := int64(0); u < 2*handlerQueueDepth; u++ {
		s := 0.0
		if u%2 == 0 {
			s = 3.0
		}
		m.Observe(snap(schema, u, map[cube.CellKey]float64{o: s}, nil))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("observe loop took %v against a wedged webhook", d)
	}
	if m.Stats().HandlerDrops == 0 {
		t.Fatal("wedged handler never shed an event")
	}
}
