// Package alert turns the engine's per-unit snapshot stream into a
// stateful alert lifecycle: it diffs consecutive unit snapshots into
// level-transition events (OK→warn→crit and back), deduplicates per cell,
// suppresses flapping de-escalations, inhibits descendants of a firing
// o-layer ancestor, and routes the surviving events through topics to
// pluggable handlers (log sink, webhook).
//
// The package is a pure snapshot consumer: it reads the same immutable
// *stream.Snapshot values the engine returns and the query layer serves,
// never touches engine internals, and its event sequence is a
// deterministic function of the snapshot sequence — the same stream yields
// the same events at any shard count, because the engine returns an
// identical snapshot per closed unit either way.
package alert

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/cube"
	"repro/internal/insight"
	"repro/internal/stream"
)

// Level is a cell's alert severity, derived from |regression slope|
// against the Warn/Crit thresholds.
type Level int

const (
	LevelOK Level = iota
	LevelWarn
	LevelCrit
)

// String renders the level as its metric/wire label.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelCrit:
		return "crit"
	default:
		return "ok"
	}
}

// Topics partition events by the alerting layer: o-layer cells are the
// operational alerting surface; cells below it (exception drill-down
// supporters) are diagnostic; forecast events are predictive — a cell's
// extrapolated time-to-threshold fell inside the configured budget
// before the measured slope tripped anything.
const (
	TopicOLayer    = "olayer"
	TopicDrillDown = "drill"
	TopicForecast  = "forecast"
)

// Topics lists every topic in metric-rendering order.
var Topics = []string{TopicOLayer, TopicDrillDown, TopicForecast}

// Levels lists every level in metric-rendering order.
var Levels = []Level{LevelOK, LevelWarn, LevelCrit}

// Event is one level transition of one cell, emitted when the lifecycle
// state machine changes a cell's reported level. Seq is assigned in
// emission order and is strictly increasing for the life of the Manager.
type Event struct {
	Seq   int64
	Unit  int64
	Topic string
	Cell  cube.CellKey
	From  Level
	To    Level
	// Slope is the cell's regression slope in the unit that fired the
	// transition (0 when the cell vanished from the stream).
	Slope float64
}

// EventJSON is the frozen wire form of an Event, shared by the query API
// (GET /v1/alerts/events) and the webhook handler's POST body. It lives
// here — not in internal/query — so the webhook payload and the query
// response are one type without an alert→query import (query wraps this
// type going the other way).
type EventJSON struct {
	Seq     int64   `json:"seq"`
	Unit    int64   `json:"unit"`
	Topic   string  `json:"topic"`
	Levels  []int   `json:"levels"`
	Members []int32 `json:"members"`
	Cuboid  string  `json:"cuboid"`
	Cell    string  `json:"cell"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Slope   float64 `json:"slope"`
}

// JSON renders the event against the schema that produced it.
func (e Event) JSON(s *cube.Schema) EventJSON {
	nd := e.Cell.Cuboid.NumDims()
	levels := make([]int, nd)
	members := make([]int32, nd)
	for d := 0; d < nd; d++ {
		levels[d] = e.Cell.Cuboid.Level(d)
		members[d] = e.Cell.Members[d]
	}
	return EventJSON{
		Seq:     e.Seq,
		Unit:    e.Unit,
		Topic:   e.Topic,
		Levels:  levels,
		Members: members,
		Cuboid:  e.Cell.Cuboid.Describe(s),
		Cell:    e.Cell.Describe(s),
		From:    e.From.String(),
		To:      e.To.String(),
		Slope:   e.Slope,
	}
}

// Config parameterizes the lifecycle.
type Config struct {
	// Schema is the cube schema snapshots were computed against; the
	// ancestor index for inhibition is built from it.
	Schema *cube.Schema
	// Warn and Crit are |slope| thresholds: ≥ Crit is critical, ≥ Warn is
	// warning. Requires 0 < Warn ≤ Crit.
	Warn, Crit float64
	// HoldUnits is the flap suppressor: a de-escalation fires only after
	// the cell holds strictly below its reported level for this many
	// consecutive units (escalations always fire immediately). Values < 1
	// default to 1 — de-escalate on the first lower unit.
	HoldUnits int
	// ForecastBudget, when > 0, enables the predictive forecast topic: an
	// o-cell whose extrapolated time until ForecastThreshold falls to at
	// most this many ticks goes critical (within twice the budget: warn).
	// Forecast events run the same dedup/hold lifecycle as the slope
	// topics but keep their own per-cell states, so a cell can be at
	// forecast-crit and slope-OK simultaneously.
	ForecastBudget int64
	// ForecastThreshold is the measure value the forecast extrapolates
	// toward. Must be finite when ForecastBudget is set.
	ForecastThreshold float64
}

// eventRing caps the recent-events buffer served by Events.
const eventRing = 256

// cellState is the per-cell lifecycle state. Cells at reported OK with no
// hold in progress are not tracked at all, so the map stays proportional
// to the firing set.
type cellState struct {
	reported Level
	// hold counts consecutive units the cell has spent strictly below its
	// reported level; reaching HoldUnits fires the de-escalation.
	hold int
}

// Manager consumes unit snapshots and owns the lifecycle state, the
// recent-events ring, the per-topic handler fan-out, and the counters
// behind the /metrics alert families.
type Manager struct {
	cfg    Config
	olayer cube.Cuboid
	anc    *cube.AncestorIndex

	mu     sync.Mutex
	states map[cube.CellKey]*cellState
	// fstates is the forecast topic's own lifecycle state: o-cell keys
	// collide with the slope topics' states otherwise.
	fstates map[cube.CellKey]*cellState
	ring    []Event
	seq     int64
	// events counts emitted events by [level][topic index].
	events [3][3]int64

	handlers []*runner
	wg       sync.WaitGroup
	closed   bool

	// scratch buffers reused across Observe calls.
	ocells, dcells, fcells []candidate
}

// candidate is one cell observed (or remembered) in the current unit,
// with its raw level already derived (from the slope thresholds, or from
// the forecast's time-to-threshold).
type candidate struct {
	key   cube.CellKey
	slope float64
	level Level
}

func compareCandidates(a, b candidate) int { return cube.CompareKeys(a.key, b.key) }

// New validates the config and builds a manager with no handlers; attach
// them with Handle before the first Observe.
func New(cfg Config) (*Manager, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("alert: nil schema")
	}
	if !(cfg.Warn > 0) || cfg.Crit < cfg.Warn {
		return nil, fmt.Errorf("alert: thresholds need 0 < warn (%g) <= crit (%g)", cfg.Warn, cfg.Crit)
	}
	if cfg.HoldUnits < 1 {
		cfg.HoldUnits = 1
	}
	if cfg.ForecastBudget > 0 && (math.IsNaN(cfg.ForecastThreshold) || math.IsInf(cfg.ForecastThreshold, 0)) {
		return nil, fmt.Errorf("alert: forecast threshold %g is not finite", cfg.ForecastThreshold)
	}
	return &Manager{
		cfg:     cfg,
		olayer:  cfg.Schema.OLayer(),
		anc:     cube.NewAncestorIndex(cfg.Schema),
		states:  make(map[cube.CellKey]*cellState),
		fstates: make(map[cube.CellKey]*cellState),
	}, nil
}

// levelOf maps a slope to its alert level.
func (m *Manager) levelOf(slope float64) Level {
	a := math.Abs(slope)
	switch {
	case a >= m.cfg.Crit:
		return LevelCrit
	case a >= m.cfg.Warn:
		return LevelWarn
	default:
		return LevelOK
	}
}

// topicIndex maps a topic to its counter column.
func topicIndex(topic string) int {
	switch topic {
	case TopicDrillDown:
		return 1
	case TopicForecast:
		return 2
	default:
		return 0
	}
}

// Observe feeds one unit snapshot through the lifecycle. Call it with
// every snapshot one engine returns, in order (the node does, on its
// ingest loop); it is safe against concurrent Events/Stats readers but
// must not run concurrently with itself.
//
// Cell processing order is fully deterministic — o-layer cells in
// cube.CompareKeys order, then drill cells likewise — so the emitted
// event sequence is a pure function of the snapshot sequence.
func (m *Manager) Observe(snap *stream.Snapshot) {
	if snap == nil {
		return
	}
	m.mu.Lock()
	// Collect this unit's candidates: every cell with data, plus every
	// tracked cell that vanished (observed at OK so it can recover).
	m.ocells, m.dcells = m.ocells[:0], m.dcells[:0]
	seen := make(map[cube.CellKey]bool)
	add := func(k cube.CellKey, slope float64, present bool) {
		if seen[k] {
			return
		}
		seen[k] = true
		c := candidate{key: k, slope: slope}
		if present {
			c.level = m.levelOf(slope)
		}
		if k.Cuboid.Equal(m.olayer) {
			m.ocells = append(m.ocells, c)
		} else {
			m.dcells = append(m.dcells, c)
		}
	}
	if snap.Result != nil {
		for _, c := range snap.Result.OCells() {
			add(c.Key, c.ISB.Slope, true)
		}
		for c := range snap.Result.AllExceptions {
			add(c.Key, c.ISB.Slope, true)
		}
	}
	for k := range m.states {
		add(k, 0, false)
	}
	slices.SortFunc(m.ocells, compareCandidates)
	slices.SortFunc(m.dcells, compareCandidates)

	// O-layer first: each o-cell's post-transition level is what inhibits
	// its descendants in the same unit.
	firing := make(map[cube.CellKey]bool)
	var emitted []Event
	for _, c := range m.ocells {
		ev, ok := m.transition(m.states, c, TopicOLayer, snap.Unit, false)
		if ok {
			emitted = append(emitted, ev)
		}
		if st := m.states[c.key]; st != nil && st.reported >= LevelWarn {
			firing[c.key] = true
		}
	}
	for _, c := range m.dcells {
		inhibited := false
		// Inhibition: a drill cell below a firing o-layer ancestor is
		// redundant with the ancestor's own alert. The rolled-up key is
		// exact because every cell between the critical layers aggregates
		// into exactly one o-cell.
		if m.olayer.DominatedBy(c.key.Cuboid) {
			inhibited = firing[m.anc.RollUp(c.key, m.olayer)]
		}
		if ev, ok := m.transition(m.states, c, TopicDrillDown, snap.Unit, inhibited); ok {
			emitted = append(emitted, ev)
		}
	}
	emitted = m.observeForecast(snap, emitted)
	handlers := m.handlers
	m.mu.Unlock()

	// Fan out after dropping the lock: handler queues are their own
	// bounded buffers and never make Observe wait.
	for _, ev := range emitted {
		for _, r := range handlers {
			r.offer(ev)
		}
	}
}

// transition advances one cell's state machine and returns the emitted
// event, if any. Caller holds m.mu.
//
// Rules: escalations fire immediately; de-escalations fire only after
// HoldUnits consecutive units strictly below the reported level, to the
// level observed when the hold expires; a unit back at (or above) the
// reported level resets the hold. An inhibited cell is frozen — no event
// and no state change — so it never emits a stale recovery once the
// ancestor clears.
func (m *Manager) transition(states map[cube.CellKey]*cellState, c candidate, topic string, unit int64, inhibited bool) (Event, bool) {
	st := states[c.key]
	if st == nil {
		st = &cellState{}
	}
	raw := c.level
	var ev Event
	fired := false
	switch {
	case inhibited:
		// frozen
	case raw > st.reported:
		ev = m.emit(unit, topic, c, st.reported, raw)
		st.reported, st.hold, fired = raw, 0, true
	case raw < st.reported:
		if st.hold++; st.hold >= m.cfg.HoldUnits {
			ev = m.emit(unit, topic, c, st.reported, raw)
			st.reported, st.hold, fired = raw, 0, true
		}
	default:
		st.hold = 0
	}
	if st.reported == LevelOK && st.hold == 0 {
		delete(states, c.key)
	} else {
		states[c.key] = st
	}
	return ev, fired
}

// observeForecast runs the predictive pass of one unit: every o-cell
// with history (plus every tracked forecast state) is extrapolated, its
// time-to-threshold mapped to a level, and the result fed through the
// same transition machinery on the forecast topic's own state map.
// Caller holds m.mu. No-op unless ForecastBudget is configured.
func (m *Manager) observeForecast(snap *stream.Snapshot, emitted []Event) []Event {
	if m.cfg.ForecastBudget <= 0 {
		return emitted
	}
	m.fcells = m.fcells[:0]
	seen := make(map[cube.CellKey]bool)
	for i := range snap.Frames {
		f := &snap.Frames[i]
		k := f.Key()
		seen[k] = true
		level, slope := m.forecastLevel(f.History())
		m.fcells = append(m.fcells, candidate{key: k, slope: slope, level: level})
	}
	for k := range m.fstates {
		if !seen[k] {
			m.fcells = append(m.fcells, candidate{key: k})
		}
	}
	slices.SortFunc(m.fcells, compareCandidates)
	for _, c := range m.fcells {
		if ev, ok := m.transition(m.fstates, c, TopicForecast, snap.Unit, false); ok {
			emitted = append(emitted, ev)
		}
	}
	return emitted
}

// forecastLevel extrapolates one cell's history and maps its time until
// the configured threshold to an alert level: within the budget is
// critical, within twice the budget warning. Unusable history (gaps, no
// points) and never-crossing trends are OK — the slope topics own the
// post-breach signal.
func (m *Manager) forecastLevel(pts []stream.HistoryPoint) (Level, float64) {
	f, err := insight.ForecastHistory(pts, m.cfg.ForecastBudget, &m.cfg.ForecastThreshold)
	if err != nil {
		return LevelOK, 0
	}
	if f.TicksToThreshold == nil {
		return LevelOK, f.Model.Slope
	}
	switch ttt := *f.TicksToThreshold; {
	case ttt <= float64(m.cfg.ForecastBudget):
		return LevelCrit, f.Model.Slope
	case ttt <= 2*float64(m.cfg.ForecastBudget):
		return LevelWarn, f.Model.Slope
	default:
		return LevelOK, f.Model.Slope
	}
}

// emit appends an event to the ring and counts it. Caller holds m.mu.
func (m *Manager) emit(unit int64, topic string, c candidate, from, to Level) Event {
	m.seq++
	ev := Event{Seq: m.seq, Unit: unit, Topic: topic, Cell: c.key, From: from, To: to, Slope: c.slope}
	if len(m.ring) >= eventRing {
		n := copy(m.ring, m.ring[len(m.ring)-eventRing+1:])
		m.ring = m.ring[:n]
	}
	m.ring = append(m.ring, ev)
	m.events[to][topicIndex(topic)]++
	return ev
}

// Events returns up to k recent events, oldest first (k <= 0 means all
// buffered). Safe from any goroutine.
func (m *Manager) Events(k int) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.ring)
	if k > 0 && k < n {
		n = k
	}
	out := make([]Event, n)
	copy(out, m.ring[len(m.ring)-n:])
	return out
}

// Stats is a point-in-time copy of the manager's counters.
type Stats struct {
	// Events counts emitted events by [level][topic], indexed per Levels
	// and Topics.
	Events [3][3]int64
	// HandlerRetries counts failed deliveries that were retried.
	HandlerRetries int64
	// HandlerDrops counts events shed from full handler queues.
	HandlerDrops int64
}

// Stats snapshots the counters. Safe from any goroutine.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{Events: m.events}
	handlers := m.handlers
	m.mu.Unlock()
	for _, r := range handlers {
		s.HandlerRetries += r.retries.Load()
		s.HandlerDrops += r.drops.Load()
	}
	return s
}

// Close stops the handler goroutines after they drain their queues.
// Idempotent; call after the last Observe.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	handlers := m.handlers
	m.mu.Unlock()
	for _, r := range handlers {
		r.close()
	}
	m.wg.Wait()
}
