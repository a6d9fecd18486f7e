package stream_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/mlr"
	"repro/internal/node"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The stream contract, as one differential test. A program of operations
// decoded from the fuzz input runs on every configuration of the real
// stack and on a naive oracle, and all are checked after every step:
//
//   - ref: one engine at one shard, fed record by record (Ingest);
//   - three engines at 2, 4 and 7 shards fed IngestBatch, each batch cut
//     its own way and every third cut sent record by record (reshard moves
//     one to another count);
//   - twin: ref under a one-level chain as deep as the current chain's
//     finest level, fed each ingest as one batch;
//   - a cluster: three one-shard "nodes" fed through stream.CellRouter with
//     an AdvanceTo barrier at every boundary, merged with MergeSnapshots
//     and MergeCheckpoints;
//   - a WAL-backed node.Analyzer that logs every batch before ingesting
//     it, cuts a checkpoint where the node does, and takes the kills.
//
// Checked after every step: the snapshots each configuration returned and
// its checkpoint bytes equal ref's bit for bit, every codec round trip is
// the identity, a refused record fails every single-engine configuration
// with the same error and the same closed units, the twin's history and
// trends are ref's bit for bit, and ref's units — o-cells,
// exceptions, alerts, finest-level history and trends — agree within
// contractBounds with the oracle's exact (math/big) fits of the raw
// series, which mlr.FitRaw cross-checks.

// Program header bytes and operations, each decoded modulo its range.
const (
	opIngest     byte = iota // ticks a+1 (mod 3 units); b seeds density, cuts and values; b≥128 leaps two units first
	opAdvance                // AdvanceTo the open unit + 1 + a%66, not past maxLeapUnit but by one
	opFlush                  // Flush
	opCheckpoint             // the WAL analyzer cuts the checkpoint a kill restores
	opKill                   // the WAL analyzer restarts at contractShards[a] from its checkpoint and log
	opReshard                // batch engine a%3 restores its checkpoint at contractShards[b]
	opRechain                // every configuration restores under contractChains[a%4], the next one if that is the current
	opCodec                  // a follower decodes the 4-shard engine's snapshots since the last codec op
	opRefuse                 // a record every single engine refuses: late, repeated, out of range, non-finite (a%4)
	numOps
)

// contractOp is one operation: its kind and two parameter bytes.
type contractOp struct{ kind, a, b byte }

// contractProgram is a decoded fuzz input: four header bytes, then
// operations of three bytes each.
type contractProgram struct {
	offset, tpu, flags, shape byte // StartTick, ticks per unit, Delta | chain<<1 | depth 6<<3, value shape
	ops                       []contractOp
}

// maxContractOps bounds a program and maxLeapUnit the units its advances
// reach, so one fuzz input stays cheap and its largest tick, which the
// engine's error grows with, is one a seed reaches too.
const (
	maxContractOps = 40
	maxLeapUnit    = 400
)

func decodeProgram(data []byte) contractProgram {
	var hdr [4]byte
	data = data[copy(hdr[:], data):]
	p := contractProgram{offset: hdr[0], tpu: hdr[1], flags: hdr[2], shape: hdr[3]}
	for ; len(data) >= 3 && len(p.ops) < maxContractOps; data = data[3:] {
		p.ops = append(p.ops, contractOp{data[0] % numOps, data[1], data[2]})
	}
	return p
}

func (p contractProgram) encode() []byte {
	out := []byte{p.offset, p.tpu, p.flags, p.shape}
	for _, op := range p.ops {
		out = append(out, op.kind, op.a, op.b)
	}
	return out
}

var (
	// contractOffsets are the StartTicks the same local series runs at.
	contractOffsets = [...]int64{0, 1 << 32, 1 << 40}
	// contractBounds is the relative error of ref's slopes and fitted
	// levels the oracle allows at each offset (slopeErr, relErr): within
	// ten times the worst of the seed corpus and 30 s of fuzzing, and three
	// or more times the worst 90 s sweeps of random programs found. It
	// grows with the offset because the accumulator and the ISB work in
	// absolute ticks (ROADMAP item 13, which has the numbers).
	contractBounds = [...]struct{ slope, level float64 }{{5e-10, 6e-11}, {2e-3, 2.5e-4}, {0.4, 0.07}}
	// fitRawBound is mlr.FitRaw's bound on the same series at local ticks,
	// at every offset.
	fitRawBound = 1e-9
	// contractChains are the tilt chains a program starts under and
	// re-chains between: the engine's default one-level chain, a
	// three-level one that promotes and evicts within a few dozen units,
	// the calendar and a logarithmic one.
	contractChains = [4][]tilt.Level{{{Name: "unit", Multiple: 1, Slots: 64}},
		{{Name: "quarter", Multiple: 1, Slots: 4}, {Name: "hour", Multiple: 4, Slots: 6}, {Name: "day", Multiple: 3, Slots: 2}},
		tilt.CalendarLevels(), tilt.LogarithmicLevels(4, 1, 8)}
	contractShards = [...]int{1, 2, 3, 4, 5, 7}
)

const contractThreshold = 0.6

func FuzzStreamContract(f *testing.F) {
	for _, p := range knownAnswerPrograms() {
		f.Add(p.encode())
	}
	for _, h := range driftPrograms {
		p, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	// Plain go test runs the named seeds under their own names (runSeed);
	// a fuzz run starts from them too.
	if fuzzing() {
		for _, s := range contractSeeds {
			f.Add(s.encode())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runContract(t, decodeProgram(data)) })
}

func fuzzing() bool { return flag.Lookup("test.fuzz").Value.String() != "" }

// contractRecord is one generated record.
type contractRecord struct {
	members []int32
	tick    int64
	value   float64
}

// contractRun is one program's configurations, oracle and follower.
type contractRun struct {
	t      *testing.T
	schema *cube.Schema
	card   int // the m-layer's members per dimension
	cfg    stream.Config
	bounds struct{ slope, level float64 }
	chain  int
	step   int
	clock  int64 // the next tick a generated record may carry

	engines []*stream.Engine // ref, then the batch engines
	twin    *stream.Engine
	// the cluster: nodes, their router and its open unit
	nodes      []*stream.Engine
	router     *stream.CellRouter
	routerUnit int64
	// the WAL-backed analyzer, its log, and the checkpoint a kill restores
	an     *node.Analyzer
	log    *wal.Log
	dir    string
	lastCP []byte
	// the follower: the snapshot it holds and the 4-shard engine's
	// snapshots it has not decoded yet
	held    *stream.Snapshot
	pending []*stream.Snapshot

	closedUnits int64              // how many units ref has closed, each in turn
	returned    []*stream.Snapshot // ref's snapshot of each closed unit
	digests     map[int64][]byte   // and its digest when it was returned
	published   []*stream.Snapshot // each engine's last returned snapshot since its last Restore
	oracle      contractOracle
}

func runContract(t *testing.T, p contractProgram) {
	t.Helper()
	// Two fanout-3 dimensions 2 or 6 deep, the o-layer one above the
	// m-layer: four cuboids between them. The stream's cells are members
	// 0..8 of each, under the 3×3 o-cells 0..2: the whole m-layer at depth
	// 2, a few of 729×729 cells at depth 6.
	schema := stream.FanoutSchema(t, 3, 2+4*int(p.flags>>3&1))
	r := &contractRun{t: t, schema: schema, dir: t.TempDir(), digests: map[int64][]byte{}}
	r.card = schema.Dims[0].Hierarchy.Cardinality(schema.Dims[0].MLevel)
	off := int(p.offset) % len(contractOffsets)
	r.bounds = contractBounds[off]
	if off > 0 && fuzzing() {
		// The drift past 2³² ticks is ROADMAP item 13's known defect, which
		// the seed corpus holds to its bound: a fuzz run checks only the
		// configurations against each other there, not a new worst drift.
		r.bounds.slope, r.bounds.level = math.Inf(1), math.Inf(1)
	}
	r.chain = int(p.flags>>1) % len(contractChains)
	r.cfg = stream.Config{
		Schema:       schema,
		TicksPerUnit: 2 + int(p.tpu)%4,
		StartTick:    contractOffsets[off],
		Threshold:    exception.Global(contractThreshold),
		TiltLevels:   contractChains[r.chain],
		// Every engine publishes; each must publish what it last returned.
		PublishSnapshots: true,
	}
	if p.flags&1 != 0 {
		r.cfg.Delta = &exception.Delta{MinSlopeChange: 0.8}
	}
	r.clock = r.cfg.StartTick
	r.oracle = newContractOracle(schema, r.cfg, int(p.shape)%3)
	for _, n := range []int{1, 2, 4, 7} {
		r.engines = append(r.engines, r.newEngine(n))
	}
	r.twin = r.newTwin()
	for range 3 {
		r.nodes = append(r.nodes, r.newEngine(1))
	}
	part, err := stream.NewPartitioner(schema, len(r.nodes))
	r.must(err)
	r.router = stream.NewCellRouter(part)
	r.an = &node.Analyzer{Engine: r.newEngine(3), Schema: schema, Dims: 2}
	r.openLog()
	defer func() { r.log.Close() }()

	r.published = make([]*stream.Snapshot, len(r.engines))
	for i, op := range p.ops {
		r.step = i
		r.apply(op)
		for i, e := range r.engines {
			if e.Snapshot() != r.published[i] {
				r.fatalf("engine %d publishes unit %v, not the last one it returned", i, e.Snapshot())
			}
		}
		r.checkCheckpoints()
	}
	// A returned snapshot never changes, whatever the engine did after.
	for _, s := range r.returned {
		if !bytes.Equal(r.digest(s), r.digests[s.Unit]) {
			r.fatalf("ref's snapshot of unit %d changed after it was returned", s.Unit)
		}
	}
}

func (r *contractRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d: %s", r.step, fmt.Sprintf(format, args...))
}

func (r *contractRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.fatalf("%v", err)
	}
}

func (r *contractRun) newEngine(shards int) *stream.Engine {
	cfg := r.cfg
	cfg.Shards = shards
	e, err := stream.NewEngine(cfg)
	r.must(err)
	return e
}

func (r *contractRun) newTwin() *stream.Engine {
	cfg := r.cfg
	cfg.TiltLevels = []tilt.Level{{Name: "unit", Multiple: 1, Slots: r.cfg.TiltLevels[0].Slots}}
	e, err := stream.NewEngine(cfg)
	r.must(err)
	return e
}

// restored is next holding e's state, cut and read back as a checkpoint
// document.
func (r *contractRun) restored(e, next *stream.Engine) *stream.Engine {
	doc, err := e.AppendCheckpoint(nil)
	r.must(err)
	cp, err := stream.DecodeCheckpoint(doc)
	r.must(err)
	r.must(next.Restore(cp))
	e.Close()
	return next
}

func (r *contractRun) openLog() {
	var err error
	r.log, err = wal.Open(wal.Options{Dir: r.dir, SegmentBytes: 4 << 10, Sync: wal.SyncOff})
	r.must(err)
}

func (r *contractRun) openUnit() int64 { return r.engines[0].Unit() }

func (r *contractRun) unitOf(tick int64) int64 {
	return (tick - r.cfg.StartTick) / int64(r.cfg.TicksPerUnit)
}

func (r *contractRun) unitStart(u int64) int64 { return r.cfg.StartTick + u*int64(r.cfg.TicksPerUnit) }

// closed collects what one step's calls returned, per configuration:
// ref, the batch engines, the twin, the cluster, the WAL analyzer.
type closed [][]*stream.Snapshot

func (r *contractRun) apply(op contractOp) {
	got := make(closed, len(r.engines)+3)
	tw, cl, wl := len(r.engines), len(r.engines)+1, len(r.engines)+2
	switch op.kind {
	case opIngest:
		recs, rng := r.generate(op)
		got[0] = r.feed(r.engines[0], recs, true)
		for i, e := range r.engines[1:] {
			for k, cut := range cuts(recs, rng) {
				got[1+i] = append(got[1+i], r.feed(e, cut, (i+k)%3 == 2)...)
			}
		}
		got[tw] = r.feed(r.twin, recs, false)
		got[cl] = r.route(recs)
		for _, cut := range cuts(recs, rng) {
			b := toBatch(cut)
			r.must(r.log.AppendColumnar(b))
			snaps, err := r.an.IngestBatch(b)
			r.must(err)
			r.must(r.an.SetWALSeq(r.log.Seq()))
			got[wl] = append(got[wl], snaps...)
		}
	case opAdvance, opFlush:
		target := r.openUnit() + 1
		if op.kind == opAdvance {
			target = min(target+int64(op.a%66), max(target, maxLeapUnit))
		}
		for i, e := range r.engines {
			if op.kind == opFlush {
				s, err := e.Flush()
				r.must(err)
				got[i] = []*stream.Snapshot{s}
			} else {
				snaps, err := e.AdvanceTo(target)
				r.must(err)
				got[i] = snaps
			}
		}
		var err error
		got[tw], err = r.twin.AdvanceTo(target)
		r.must(err)
		got[cl] = r.barrier(target)
		got[wl] = r.advanceAnalyzer(target)
	case opCheckpoint:
		r.cutAnalyzer()
	case opKill:
		r.kill(contractShards[int(op.a)%len(contractShards)])
	case opReshard:
		i := 1 + int(op.a)%(len(r.engines)-1)
		r.engines[i] = r.restored(r.engines[i], r.newEngine(contractShards[int(op.b)%len(contractShards)]))
		r.published[i] = nil
	case opRechain:
		r.rechain(int(op.a) % len(contractChains))
	case opCodec:
		r.follow()
	case opRefuse:
		r.refuse(op, got)
		return
	}
	r.compareClosed(got)
}

// generate returns an ingest op's records, in stream order, and the
// generator that cuts them into batches.
func (r *contractRun) generate(op contractOp) ([]contractRecord, *rand.Rand) {
	rng := rand.New(rand.NewPCG(uint64(op.b), uint64(r.step)))
	tpu := int64(r.cfg.TicksPerUnit)
	r.clock = max(r.clock, r.unitStart(r.openUnit()))
	if op.b >= 128 {
		r.clock += 2*tpu + 1 // a leap: the next record closes empty units
	}
	density := [...]float64{0.01, 0.1, 0.4}[op.b%3]
	var recs []contractRecord
	end := r.clock + 1 + int64(op.a)%(3*tpu)
	for ; r.clock < end; r.clock++ {
		for c := range int32(81) {
			if rng.Float64() >= density {
				continue
			}
			rec := contractRecord{members: []int32{c / 9, c % 9}, tick: r.clock, value: r.oracle.value(c, r.clock, rng)}
			recs = append(recs, rec)
			r.oracle.observe(rec)
		}
	}
	return recs, rng
}

// cuts cuts recs at random points.
func cuts(recs []contractRecord, rng *rand.Rand) [][]contractRecord {
	var out [][]contractRecord
	for lo := 0; lo < len(recs); {
		hi := lo + 1 + rng.IntN(len(recs)-lo)
		out = append(out, recs[lo:hi])
		lo = hi
	}
	return out
}

// feed sends recs to e record by record, or as one batch that it then
// overwrites, as the engine's caller may at once.
func (r *contractRun) feed(e *stream.Engine, recs []contractRecord, perRecord bool) []*stream.Snapshot {
	if perRecord {
		var out []*stream.Snapshot
		for _, rec := range recs {
			snaps, err := e.Ingest(rec.members, rec.tick, rec.value)
			r.must(err)
			out = append(out, snaps...)
		}
		return out
	}
	b := toBatch(recs)
	snaps, err := e.IngestBatch(b)
	r.must(err)
	for i := range b.Ticks {
		b.Ticks[i], b.Values[i] = -1<<40, math.NaN()
	}
	for _, col := range b.Cols {
		clear(col)
	}
	return snaps
}

func toBatch(recs []contractRecord) *wire.Batch {
	var b wire.Batch
	b.Reset(2)
	for _, rec := range recs {
		b.Append(rec.tick, rec.members, rec.value)
	}
	return &b
}

// route feeds recs to the cluster as a router does: the records of the
// open unit go to their nodes (CellRouter.Select), and a record past it
// first barriers every node to its unit.
func (r *contractRun) route(recs []contractRecord) []*stream.Snapshot {
	var out []*stream.Snapshot
	b := toBatch(recs)
	sel := make([][]int32, len(r.nodes))
	segment := func(lo, hi int) {
		for i := range sel {
			sel[i] = sel[i][:0]
		}
		r.must(r.router.Select(b, lo, hi, int32(lo), sel))
		for i, positions := range sel {
			if len(positions) == 0 {
				continue
			}
			var part []contractRecord
			for _, p := range positions {
				part = append(part, recs[p])
			}
			if snaps, err := r.nodes[i].IngestBatch(toBatch(part)); err != nil || len(snaps) != 0 {
				r.fatalf("node %d closed %d units inside the open unit: %v", i, len(snaps), err)
			}
		}
	}
	lo := 0
	for i, rec := range recs {
		if u := r.unitOf(rec.tick); u > r.routerUnit {
			segment(lo, i)
			out = append(out, r.barrier(u)...)
			lo = i
		}
	}
	segment(lo, len(recs))
	return out
}

// barrier advances every node to target and merges their snapshots of
// each closed unit.
func (r *contractRun) barrier(target int64) []*stream.Snapshot {
	if target <= r.routerUnit {
		return nil
	}
	parts := make([][]*stream.Snapshot, len(r.nodes))
	for i, n := range r.nodes {
		var err error
		parts[i], err = n.AdvanceTo(target)
		r.must(err)
	}
	out := make([]*stream.Snapshot, len(parts[0]))
	for u := range out {
		var unit []*stream.Snapshot
		for _, p := range parts {
			unit = append(unit, p[u])
		}
		var err error
		out[u], err = stream.MergeSnapshots(r.schema, unit)
		r.must(err)
		if u > 0 {
			if _, err := stream.MergeSnapshots(r.schema, []*stream.Snapshot{parts[0][u-1], parts[1][u]}); err == nil {
				r.fatalf("nodes' snapshots of units %d and %d merged", u-1, u)
			}
		}
	}
	r.routerUnit = target
	r.router.Advance()
	return out
}

// advanceAnalyzer closes the analyzer's units to target and, as the node
// does after a barrier-closed unit, cuts a checkpoint.
func (r *contractRun) advanceAnalyzer(target int64) []*stream.Snapshot {
	snaps, err := r.an.AdvanceTo(target)
	r.must(err)
	if len(snaps) > 0 {
		r.cutAnalyzer()
	}
	return snaps
}

func (r *contractRun) cutAnalyzer() {
	var buf bytes.Buffer
	r.must(r.an.WriteCheckpoint(&buf))
	r.lastCP = buf.Bytes()
}

// kill drops the analyzer and its log as a crash would, then restarts at
// shards from the last checkpoint and the log past its watermark. Each
// unit the replay re-closes must be the one ref closed live.
func (r *contractRun) kill(shards int) {
	end := r.log.Seq()
	r.log.Close()
	r.an.Close()
	r.an = &node.Analyzer{Engine: r.newEngine(shards), Schema: r.schema, Dims: 2}
	if r.lastCP != nil {
		r.must(r.an.LoadCheckpoint(bytes.NewReader(r.lastCP)))
	}
	var replayed []*stream.Snapshot
	n, err := r.an.ReplayLog(r.dir, r.an.WALSeq(), func(snaps []*stream.Snapshot) { replayed = append(replayed, snaps...) })
	r.must(err)
	if n != end {
		r.fatalf("replay ended at record %d, the log at %d", n, end)
	}
	r.must(r.an.SetWALSeq(n))
	r.openLog()
	for _, s := range replayed {
		if want, ok := r.digests[s.Unit]; !ok || !bytes.Equal(r.digest(s), want) {
			r.fatalf("replay re-closed unit %d other than it closed live", s.Unit)
		}
	}
}

// rechain restores every configuration under another tilt chain, to or
// the one after it. Each frame reseeds: a fresh frame of the new chain fed
// the old one's retained finest slots, as many as its finest level holds.
func (r *contractRun) rechain(to int) {
	if to == r.chain {
		to = (to + 1) % len(contractChains)
	}
	r.chain = to
	r.cfg.TiltLevels = contractChains[r.chain]
	for key, n := range r.oracle.history {
		r.oracle.history[key] = min(n, r.cfg.TiltLevels[0].Slots)
	}
	old, err := r.engines[0].Checkpoint()
	r.must(err)
	for i, e := range r.engines {
		r.engines[i] = r.restored(e, r.newEngine(e.Shards()))
		r.published[i] = nil
	}
	r.twin = r.restored(r.twin, r.newTwin())
	reseeded, err := r.engines[0].Checkpoint()
	r.must(err)
	for i, rec := range old.Tilt {
		f, err := tilt.NewUnitFrame(r.cfg.TiltLevels)
		r.must(err)
		slots := rec.Frame.Levels[0].Slots
		for _, sl := range slots {
			r.must(f.Push(sl.ISB))
		}
		if got := reseeded.Tilt[i]; got.Base != rec.Base+slots[0].Unit || !reflect.DeepEqual(got.Frame, f.State()) {
			r.fatalf("o-cell %v reseeds to another frame than the new chain builds from its finest slots", rec.Members)
		}
	}
	for i, n := range r.nodes {
		r.nodes[i] = r.restored(n, r.newEngine(1))
	}
	r.an.Engine = r.restored(r.an.Engine, r.newEngine(r.an.Shards()))
	r.cutAnalyzer()
}

// follow decodes the 4-shard engine's pending snapshots as a follower
// would — a successor document when it holds the unit before of the same
// origin, a full one otherwise — and holds each decoded snapshot to the
// original's full document.
func (r *contractRun) follow() {
	for _, s := range r.pending {
		full, err := stream.EncodeSnapshot(s)
		r.must(err)
		doc := full
		if h := r.held; h != nil && h.Origin == s.Origin && h.Unit+1 == s.Unit {
			doc, err = stream.EncodeSuccessor(s)
			r.must(err)
		}
		dec, err := stream.DecodeSnapshotAfter(r.schema, r.held, doc)
		r.must(err)
		if again, err := stream.EncodeSnapshot(dec); err != nil || !bytes.Equal(again, full) {
			r.fatalf("unit %d: the follower's snapshot encodes other than the engine's (%v)", s.Unit, err)
		}
		r.held = dec
	}
	r.pending = r.pending[:0]
}

// refuse sends one record every single-engine configuration must refuse:
// to ref and one batch engine per record, behind a good record of the
// open unit when the clock is still in it, and to the others as one batch
// of the two (but an out-of-range member, which refuses the whole run
// around it). Each must fail with ref's error and close ref's units, and
// the good record must stand. The cluster, the analyzer and the twin see
// only the good record and barrier to the units the bad one closed. An
// error that sticks is cleared by restoring the state before the bad
// record.
func (r *contractRun) refuse(op contractOp, got closed) {
	ref, open, kind := r.engines[0], r.openUnit(), op.a%4
	var recs []contractRecord
	if r.clock >= r.unitStart(open) && r.clock < r.unitStart(open+1) {
		good := contractRecord{members: []int32{int32(op.b % 9), int32(op.b / 27 % 9)}, tick: r.clock}
		good.value = r.oracle.value(good.members[0]*9+good.members[1], good.tick, rand.New(rand.NewPCG(uint64(op.b), 0)))
		r.clock++
		r.oracle.observe(good)
		recs = append(recs, good)
		b := toBatch(recs)
		r.must(r.log.AppendColumnar(b))
		_, err := r.an.IngestBatch(b)
		r.must(err)
		r.must(r.an.SetWALSeq(r.log.Seq()))
		r.route(recs)
		r.feed(ref, recs, true)
		r.feed(r.twin, recs, true)
	}
	pre, err := ref.Checkpoint()
	r.must(err)
	bad := contractRecord{members: []int32{int32(op.b % 9), int32(op.b / 9 % 9)}, tick: r.unitStart(open+1) - 1, value: 1}
	sticky := true
	switch kind {
	case 0: // before the open unit
		bad.tick, sticky = r.unitStart(open)-1, false
	case 1: // a tick its cell already consumed
		last, ok := r.oracle.last[open]
		if !ok {
			return
		}
		bad.members, bad.tick = last.members, last.tick
	case 2: // a member outside the m-layer, at the clock: it may close units first
		bad.members[0], bad.tick, sticky = int32(r.card), max(r.clock, r.unitStart(open)), false
	case 3:
		bad.value = [...]float64{math.NaN(), math.Inf(1)}[op.b%2]
	}
	var wantErr error
	perRecord := 1 + int(op.b)%(len(r.engines)-1)
	for i, e := range r.engines {
		var snaps []*stream.Snapshot
		switch i {
		case 0:
			snaps, wantErr = e.Ingest(bad.members, bad.tick, bad.value)
			err = wantErr
		case perRecord:
			r.feed(e, recs, true)
			snaps, err = e.Ingest(bad.members, bad.tick, bad.value)
		default:
			batch := append(recs, bad)
			if kind == 2 && len(recs) > 0 { // the good record alone: the range check refuses a whole run
				_, err = e.IngestBatch(toBatch(recs))
				r.must(err)
				batch = batch[1:]
			}
			snaps, err = e.IngestBatch(toBatch(batch))
		}
		if refusalClass(err) == nil || refusalClass(err) != refusalClass(wantErr) || err.Error() != wantErr.Error() {
			r.fatalf("engine %d refused %+v with %v, ref with %v", i, bad, err, wantErr)
		}
		if _, err := e.AdvanceTo(0); sticky != (err != nil) || sticky && err.Error() != wantErr.Error() {
			r.fatalf("engine %d: after the refusal %v, the next call returned %v", i, wantErr, err)
		}
		if e.ActiveCells() != ref.ActiveCells() {
			r.fatalf("engine %d holds %d cells after the refusal, ref %d", i, e.ActiveCells(), ref.ActiveCells())
		}
		got[i] = snaps
	}
	got[len(r.engines)], err = r.twin.AdvanceTo(r.openUnit())
	r.must(err)
	got[len(r.engines)+1] = r.barrier(r.openUnit())
	got[len(r.engines)+2] = r.advanceAnalyzer(r.openUnit())
	r.compareClosed(got)
	if sticky {
		for i, e := range r.engines {
			r.must(e.Restore(pre))
			r.published[i] = nil
		}
	}
}

// refusalClass is the sentinel a refusal wraps: ErrRecord, or for a
// non-finite value the accumulator's ErrNonFinite; nil for any other error.
func refusalClass(err error) error {
	for _, class := range []error{stream.ErrRecord, regression.ErrNonFinite} {
		if errors.Is(err, class) {
			return class
		}
	}
	return nil
}

// compareClosed holds every configuration's closed units to ref's, and
// ref's to the oracle.
func (r *contractRun) compareClosed(got closed) {
	ref := got[0]
	for _, s := range ref {
		if s.Unit != r.closedUnits || s.UnitsDone != r.closedUnits+1 {
			r.fatalf("ref closed unit %d as its %dth, want unit %d", s.Unit, s.UnitsDone, r.closedUnits)
		}
		r.closedUnits++
		r.returned = append(r.returned, s)
		r.digests[s.Unit] = r.digest(s)
		r.oracle.check(r, s)
	}
	for i, snaps := range got[1:] {
		if len(snaps) != len(ref) {
			r.fatalf("configuration %d closed %d units, ref %d", i+1, len(snaps), len(ref))
		}
		for k, s := range snaps {
			if i+1 == len(r.engines) {
				r.sameHistory(ref[k], s)
			} else if !bytes.Equal(r.digest(s), r.digests[ref[k].Unit]) {
				r.fatalf("configuration %d: unit %d differs from ref's", i+1, s.Unit)
			}
		}
	}
	for i := range r.engines {
		if n := len(got[i]); n > 0 {
			r.published[i] = got[i][n-1]
		}
	}
	r.pending = append(r.pending, got[2]...)
}

// sameHistory holds the twin's snapshot of a unit to ref's: the same
// o-cells, each with the same finest-level history and the same trends
// over its last unit, half its history and all of it, bit for bit.
func (r *contractRun) sameHistory(s, twin *stream.Snapshot) {
	for _, f := range slices.Concat(s.Frames, twin.Frames) {
		key := f.Key()
		n := s.HistoryLen(key)
		same := reflect.DeepEqual(s.HistoryOf(key), twin.HistoryOf(key))
		for _, k := range []int{1, (n + 1) / 2, n} {
			a, errA := s.TrendQuery(key, k)
			b, errB := twin.TrendQuery(key, k)
			same = same && a == b && errA == nil && errB == nil
		}
		if !same {
			r.fatalf("unit %d: o-cell %v's finest history or a trend over it differs from the twin's", s.Unit, key)
		}
	}
}

// digest is everything a reader sees of a snapshot, as bytes: its full
// document with the origin and the cubing statistics cleared (neither is
// part of the contract), then each o-cell and exception looked up both
// ways through the snapshot's own result, each o-cell's supporters, and
// each alert's regression.
func (r *contractRun) digest(s *stream.Snapshot) []byte {
	c := *s
	c.Origin = 0
	var lookups []byte
	words := func(ws ...uint64) {
		for _, w := range ws {
			lookups = binary.LittleEndian.AppendUint64(lookups, w)
		}
	}
	isb := func(v regression.ISB, ok bool) {
		words(uint64(v.Tb), uint64(v.Te), math.Float64bits(v.Base), math.Float64bits(v.Slope), map[bool]uint64{true: 1}[ok])
	}
	if res := s.Result; res != nil {
		var err error
		c.Result, err = core.NewResult(r.schema, res.OCells(), res.ExceptionCells(), core.Stats{})
		r.must(err)
		for _, cell := range slices.Concat(res.OCells(), res.ExceptionCells()) {
			isb(res.OCell(cell.Key))
			isb(res.Exception(cell.Key))
		}
		for _, o := range res.OCells() {
			for sup := range res.Supporters(o.Key) {
				k := sup.Key
				words(uint64(k.Cuboid.Level(0)), uint64(k.Cuboid.Level(1)), uint64(k.Members[0]), uint64(k.Members[1]))
				isb(sup.ISB, true)
			}
		}
	}
	for _, a := range s.Alerts {
		isb(a.ISB, a.Unit == s.Unit)
	}
	doc, err := stream.EncodeSnapshot(&c)
	r.must(err)
	return append(doc, lookups...)
}

// checkCheckpoints holds every configuration's checkpoint document to
// ref's, the analyzer's with its watermark cleared and the cluster's
// merged from the nodes', and ref's codec round trip to the identity.
func (r *contractRun) checkCheckpoints() {
	want, err := r.engines[0].AppendCheckpoint(nil)
	r.must(err)
	cp, err := stream.DecodeCheckpoint(want)
	r.must(err)
	if again, err := stream.AppendCheckpoint(nil, cp); err != nil || !bytes.Equal(again, want) {
		r.fatalf("the checkpoint codec is not the identity (%v)", err)
	}
	// A batch engine's document appends to what dst holds, from buffers
	// the engine reuses, and leaves a Checkpoint cut before it as it was.
	// Its frames hold what TiltSlots counts, within the chain's capacity.
	inUse, capacity := r.engines[0].TiltSlots()
	held, perCell := 0, 0
	for _, f := range cp.Tilt {
		for _, lv := range f.Frame.Levels {
			held += len(lv.Slots)
		}
	}
	for _, lv := range r.cfg.TiltLevels {
		perCell += lv.Slots
	}
	if inUse != held || capacity != perCell*len(cp.Tilt) || held > capacity {
		r.fatalf("TiltSlots reads %d of %d; the frames hold %d of %d", inUse, capacity, held, perCell*len(cp.Tilt))
	}
	var docs [][]byte
	for _, e := range r.engines[1:] {
		earlier, err := e.Checkpoint()
		r.must(err)
		doc, err := e.AppendCheckpoint([]byte("prefix"))
		r.must(err)
		before, err := stream.AppendCheckpoint(nil, earlier)
		r.must(err)
		docs = append(docs, bytes.TrimPrefix(doc, []byte("prefix")), before)
	}
	var parts []*stream.Checkpoint
	for _, n := range r.nodes {
		cp, err := n.Checkpoint()
		r.must(err)
		parts = append(parts, cp)
	}
	merged, err := stream.MergeCheckpoints(parts)
	r.must(err)
	an, err := r.an.Checkpoint()
	r.must(err)
	an.WALSeq = 0
	for _, cp := range []*stream.Checkpoint{merged, an} {
		doc, err := stream.AppendCheckpoint(nil, cp)
		r.must(err)
		docs = append(docs, doc)
	}
	for i, doc := range docs {
		if !bytes.Equal(doc, want) {
			r.fatalf("checkpoint document %d (of the batch engines' two each, the cluster's, the analyzer's) differs from ref's", i)
		}
	}
}

// contractOracle keeps each m-cell's raw series per unit, zeros for the
// ticks it sat out, and fits every sum of them from scratch.
type contractOracle struct {
	schema *cube.Schema
	cfg    stream.Config
	shape  int // 0 noisy, 1 a perfect line, 2 a flat line
	cubes  []cube.Cuboid
	units  map[int64]map[int32][]float64 // unit → m-cell → its series in the unit
	last   map[int64]contractRecord      // unit → its last record
	// oSums[u][o] is o-cell o's exact sums over unit u; seen holds the
	// o-cells with data in a unit checked so far, history the units of
	// history each should retain
	oSums   map[int64]map[cube.CellKey]*exactSums
	seen    map[cube.CellKey]bool
	history map[cube.CellKey]int
}

func newContractOracle(s *cube.Schema, cfg stream.Config, shape int) contractOracle {
	return contractOracle{schema: s, cfg: cfg, shape: shape, cubes: cube.NewLattice(s).Cuboids(),
		units: map[int64]map[int32][]float64{}, last: map[int64]contractRecord{}, oSums: map[int64]map[cube.CellKey]*exactSums{}, seen: map[cube.CellKey]bool{}, history: map[cube.CellKey]int{}}
}

// value is cell c's reading at tick: a line in the local tick whose level
// and slope are the cell's, plus noise in the noisy shape.
func (o *contractOracle) value(c int32, tick int64, rng *rand.Rand) float64 {
	local := float64(tick - o.cfg.StartTick)
	level, slope := float64(c%11), float64(c%7-3)*0.25
	switch o.shape {
	case 1:
		return level + slope*local
	case 2:
		return level
	}
	return level + slope*local + rng.NormFloat64()
}

func (o *contractOracle) observe(rec contractRecord) {
	tpu := int64(o.cfg.TicksPerUnit)
	u := (rec.tick - o.cfg.StartTick) / tpu
	cells := o.units[u]
	if cells == nil {
		cells = map[int32][]float64{}
		o.units[u] = cells
	}
	c := rec.members[0]*9 + rec.members[1]
	if cells[c] == nil {
		cells[c] = make([]float64, tpu)
	}
	cells[c][(rec.tick-o.cfg.StartTick)%tpu] = rec.value
	o.last[u] = rec
}

// exactSums are a series' Σz and Σi·z, i the local index from 0, in
// binary floating point wide enough that every sum is exact (each add
// checks it), z its values as float64, and the fit once it is asked for.
type exactSums struct {
	s0, s1             big.Float
	z                  []float64
	fitted             bool
	slope, mean, scale float64
}

const exactPrec = 512

func newExactSums(n int64) *exactSums {
	e := &exactSums{z: make([]float64, n)}
	e.s0.SetPrec(exactPrec)
	e.s1.SetPrec(exactPrec)
	return e
}

// seriesSums are the sums of one raw series: its points added one by one.
func seriesSums(r *contractRun, z []float64) *exactSums {
	e := newExactSums(int64(len(z)))
	for i, v := range z {
		point := newExactSums(1)
		point.s0.SetFloat64(v)
		point.z[0] = v
		e.add(r, point, i)
	}
	return e
}

// add adds the series of o to e's, o's first value at e's local index
// shift: Σz adds, and Σi·z adds o's plus shift·Σz of o.
func (e *exactSums) add(r *contractRun, o *exactSums, shift int) {
	for i, v := range o.z {
		e.z[shift+i] += v
	}
	var x big.Float
	x.SetPrec(exactPrec).Mul(&o.s0, big.NewFloat(float64(shift)))
	e.s1.Add(&e.s1, &x)
	e.s1.Add(&e.s1, &o.s1)
	e.s0.Add(&e.s0, &o.s0)
	if x.Acc() != big.Exact || e.s0.Acc() != big.Exact || e.s1.Acc() != big.Exact {
		r.fatalf("exact sums rounded at %d bits", exactPrec)
	}
}

// fit is the exact least-squares slope and mean of the series, rounded
// once, and the series' scale: its largest magnitude, at least 1.
func (e *exactSums) fit() (slope, mean, scale float64) {
	if !e.fitted {
		n := float64(len(e.z))
		var num big.Float
		num.SetPrec(exactPrec).Mul(big.NewFloat((n-1)/2), &e.s0)
		num.Sub(&e.s1, &num)
		num.Quo(&num, big.NewFloat((n*n*n-n)/12))
		e.slope, _ = num.Float64()
		e.mean, _ = num.Quo(&e.s0, big.NewFloat(n)).Float64()
		e.scale = 1
		for _, v := range e.z {
			e.scale = max(e.scale, math.Abs(v))
		}
		e.fitted = true
	}
	return e.slope, e.mean, e.scale
}

// check holds ref's snapshot of a unit to the oracle: its o-cells are the
// cells with data, every cell of every cuboid between the layers that the
// engine reports lies within bound of the exact fit, and every cell whose
// exact |slope| clears the threshold by more than the bound is (or is not)
// an exception; then each o-cell's finest-level trend over its last unit
// and over its whole retained history.
func (o *contractOracle) check(r *contractRun, s *stream.Snapshot) {
	n := int64(o.cfg.TicksPerUnit)
	iv := o.interval(s.Unit, 1)
	cells := o.units[s.Unit]
	if s.Interval.Tb != iv.Tb || s.Interval.Te != iv.Te || (s.Result == nil) != (len(cells) == 0) {
		r.fatalf("unit %d: interval %v, result %v; want %v and data in %d cells", s.Unit, s.Interval, s.Result != nil, iv, len(cells))
	}
	oSums := map[cube.CellKey]*exactSums{}
	o.oSums[s.Unit] = oSums
	if s.Result == nil {
		if len(s.Alerts) > 0 {
			r.fatalf("empty unit %d raised %d alerts", s.Unit, len(s.Alerts))
		}
		o.checkTrends(r, s)
		return
	}
	mLayer, oLayer := o.schema.MLayer(), o.schema.OLayer()
	order := slices.Sorted(maps.Keys(cells))
	series := map[int32]*exactSums{}
	for c, z := range cells {
		series[c] = seriesSums(r, z)
	}
	exceptions := 0
	for _, cb := range o.cubes {
		sums := map[cube.CellKey]*exactSums{}
		for _, c := range order {
			key, err := cube.RollUpKey(o.schema, cube.NewCellKey(mLayer, c/9, c%9), cb)
			r.must(err)
			e := sums[key]
			if e == nil {
				e = newExactSums(n)
				sums[key] = e
			}
			e.add(r, series[c], 0)
		}
		for key, e := range sums {
			slope, _, _ := e.fit()
			if cb == oLayer {
				oSums[key] = e
				got, ok := s.Result.OCell(key)
				if !ok {
					r.fatalf("unit %d: o-cell %v with data is missing", s.Unit, key)
				}
				o.near(r, "o-cell", key, got, iv, e)
			}
			got, isExc := s.Result.Exception(key)
			if isExc {
				exceptions++
				o.near(r, "exception", key, got, iv, e)
			}
			r.decide("an exception", key, math.Abs(slope)-contractThreshold, r.tol(e), isExc)
			fitRaw(r, key, e)
		}
		if cb == oLayer && len(sums) != s.Result.NumOCells() {
			r.fatalf("unit %d: %d o-cells, %d with data", s.Unit, s.Result.NumOCells(), len(sums))
		}
	}
	if exceptions != s.Result.NumExceptions() {
		r.fatalf("unit %d: %d exceptions, %d of them cells with data", s.Unit, s.Result.NumExceptions(), exceptions)
	}
	o.checkAlerts(r, s, oSums)
	o.checkTrends(r, s)
}

// checkAlerts holds the unit's alerts to the exact fits: an o-cell raises
// a slope exception when its |slope| passes the threshold, and with Delta
// a slope change when its slope moved that far from the unit before (zero
// for a unit it sat out) — unless it is new this unit.
func (o *contractOracle) checkAlerts(r *contractRun, s *stream.Snapshot, oSums map[cube.CellKey]*exactSums) {
	type alert struct {
		cell cube.CellKey
		kind stream.AlertKind
	}
	raised := map[alert]bool{}
	for _, a := range s.Alerts {
		if oSums[a.Cell] == nil {
			r.fatalf("unit %d: alert on %v, no o-cell with data", s.Unit, a.Cell)
		}
		raised[alert{a.Cell, a.Kind}] = true
	}
	for key, e := range oSums {
		slope, _, _ := e.fit()
		r.decide("a slope exception", key, math.Abs(slope)-contractThreshold, r.tol(e), raised[alert{key, stream.SlopeException}])
		if o.cfg.Delta != nil && o.seen[key] {
			prev, tol := 0.0, r.tol(e)
			if p := o.oSums[s.Unit-1][key]; p != nil {
				prev, _, _ = p.fit()
				tol += r.tol(p)
			}
			r.decide("a slope change", key, math.Abs(slope-prev)-o.cfg.Delta.MinSlopeChange, tol, raised[alert{key, stream.SlopeChange}])
		} else if raised[alert{key, stream.SlopeChange}] {
			r.fatalf("unit %d: o-cell %v raised a slope change with no unit before", s.Unit, key)
		}
		o.seen[key] = true
	}
}

// decide fails when the engine's decision made, that x ≥ 0 for an exact x
// it knows within tol, is not the exact one.
func (r *contractRun) decide(what string, key cube.CellKey, x, tol float64, made bool) {
	if math.Abs(x) > tol && made != (x >= 0) {
		r.fatalf("%v is %s: %v, but its margin is %g (tolerance %g)", key, what, made, x, tol)
	}
}

// tol is the slope error contractBounds allows the engine on e's fit.
func (r *contractRun) tol(e *exactSums) float64 {
	slope, _, scale := e.fit()
	return r.bounds.slope * max(math.Abs(slope), scale/float64(len(e.z)))
}

// checkTrends holds each o-cell's finest-level history to the units since
// it first had data, as many as the finest level holds, and its trend over
// its last unit and over that whole history to the exact fit of its series
// over those units, zero for every unit the cell sat out.
func (o *contractOracle) checkTrends(r *contractRun, s *stream.Snapshot) {
	tpu := int64(o.cfg.TicksPerUnit)
	for _, f := range s.Frames {
		key := f.Key()
		o.history[key] = min(o.history[key]+1, s.Chain[0].Slots)
		if n := s.HistoryLen(key); n != o.history[key] {
			r.fatalf("unit %d: o-cell %v holds %d units of history, want %d", s.Unit, key, n, o.history[key])
		}
		if _, err := s.TrendQueryAt(key, len(s.Chain), 1); !errors.Is(err, stream.ErrRecord) {
			r.fatalf("a trend at level %d of %d: %v", len(s.Chain), len(s.Chain), err)
		}
		for _, k := range []int64{1, int64(s.HistoryLen(key))} {
			got, err := s.TrendQuery(key, int(k))
			r.must(err)
			e := o.sumsOver(r, key, s.Unit-k+1, k)
			o.near(r, fmt.Sprintf("trend over %d units of", k), key, got, o.interval(s.Unit-k+1, k), e)
			if _, active := o.oSums[s.Unit][key]; active && k > 1 {
				fitRaw(r, key, e)
			}
		}
		// Each coarser level holds at most its slots, and its newest slot
		// is the fit over the finest units it promoted.
		units := int64(1)
		for l := 1; l < len(s.Chain); l++ {
			units *= int64(s.Chain[l].Multiple)
			slots := f.Frame.Levels[l].Slots
			if len(slots) > s.Chain[l].Slots {
				r.fatalf("o-cell %v holds %d slots at level %d of %d", key, len(slots), l, s.Chain[l].Slots)
			}
			if len(slots) > 0 {
				got := slots[len(slots)-1].ISB
				first := (got.Tb - o.cfg.StartTick) / tpu
				o.near(r, fmt.Sprintf("level %d's newest slot of", l), key, got, o.interval(first, units), o.sumsOver(r, key, first, units))
			}
		}
	}
}

// sumsOver are o-cell key's exact sums over k units from unit first, zero
// for every unit it sat out.
func (o *contractOracle) sumsOver(r *contractRun, key cube.CellKey, first, k int64) *exactSums {
	tpu := int64(o.cfg.TicksPerUnit)
	e := newExactSums(k * tpu)
	for u := first; u < first+k; u++ {
		if unit := o.oSums[u][key]; unit != nil {
			e.add(r, unit, int((u-first)*tpu))
		}
	}
	return e
}

// interval is the tick interval of k units from unit u.
func (o *contractOracle) interval(u, k int64) regression.ISB {
	tpu := int64(o.cfg.TicksPerUnit)
	tb := o.cfg.StartTick + u*tpu
	return regression.ISB{Tb: tb, Te: tb + k*tpu - 1}
}

// near holds an engine regression to the exact fit e over iv: the same
// interval, and slope and level (the fit at the interval's middle)
// within the offset's bound, relative to the series' scale.
func (o *contractOracle) near(r *contractRun, what string, key cube.CellKey, got, iv regression.ISB, e *exactSums) {
	if got.Tb != iv.Tb || got.Te != iv.Te {
		r.fatalf("%s %v spans [%d,%d], want [%d,%d]", what, key, got.Tb, got.Te, iv.Tb, iv.Te)
	}
	slope, mean, scale := e.fit()
	level := got.Base + got.Slope*(float64(iv.Tb)+float64(iv.Te-iv.Tb)/2)
	es, el := slopeErr(got.Slope, e), relErr(level, mean, scale)
	if !(es <= r.bounds.slope && el <= r.bounds.level) {
		r.fatalf("%s %v over [%d,%d]: slope %g and level %g, exact %g and %g (relative errors %.3g, %.3g)",
			what, key, iv.Tb, iv.Te, got.Slope, level, slope, mean, es, el)
	}
}

// fitRaw holds mlr.FitRaw's slope of e's series, at local ticks, to the
// exact one.
func fitRaw(r *contractRun, key cube.CellKey, e *exactSums) {
	z := e.z
	vars := make([][]float64, len(z))
	for i := range vars {
		vars[i] = []float64{float64(i)}
	}
	m, err := mlr.FitRaw(mlr.Basis{Name: "line", Dim: 2, Map: func(v, dst []float64) { dst[0], dst[1] = 1, v[0] }}, vars, z)
	r.must(err)
	if err := slopeErr(m.Coef[1], e); err > fitRawBound {
		r.fatalf("FitRaw's slope of %v is %g (relative error %.3g)", key, m.Coef[1], err)
	}
}

// relErr is got's error relative to exact, or to scale when that is larger.
func relErr(got, exact, scale float64) float64 {
	return math.Abs(got-exact) / max(math.Abs(exact), scale)
}

// slopeErr is a slope's relative error against e's exact fit, at least
// as large as a slope that spans the series' scale over its length.
func slopeErr(got float64, e *exactSums) float64 {
	slope, _, scale := e.fit()
	return relErr(got, slope, scale/float64(len(e.z)))
}
