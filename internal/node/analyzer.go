// Package node is the streamd runtime, extracted so the daemon binary is
// flag parsing over a library: engine construction (EngineConfig.Build,
// shared with `regcube replay`), ingest-source selection (stdin text or
// binary, TCP), WAL append and replay, the HTTP query server, the alert
// lifecycle, and the ordered graceful shutdown. cmd/streamd maps flags
// onto Config and calls Run; nothing below this package imports it.
package node

import (
	"fmt"
	"io"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// EngineConfig is the analyzer-construction half of the runtime config:
// everything that determines what the engine computes, none of what feeds
// it. streamd and `regcube replay` both build engines through it, so a
// replayed what-if run is constructed exactly like the live run it
// re-enacts.
type EngineConfig struct {
	// Spec is the schema spec D<dims>L<levels>C<fanout> (no T component).
	Spec string
	// TicksPerUnit is the unit width in ticks.
	TicksPerUnit int
	// Threshold is the global slope exception threshold.
	Threshold float64
	// Alg names the cubing algorithm; the node runs m/o-cubing only, so
	// "" and "mo" are the accepted values. It is kept because benchmark/
	// sets Alg: "mo"; the next benchmark change removes it.
	Alg string
	// Tilt is the tilt-frame level chain spec (streamd -tilt syntax); empty
	// is the one-level default, unit:1:64.
	Tilt string
	// Shards hash-partitions the engine across that many goroutines; 1
	// runs it single-threaded on the caller's.
	Shards int
	// PublishSnapshots turns on per-unit snapshot publication (required
	// by the query API and the alert lifecycle).
	PublishSnapshots bool
}

// Analyzer is the node's engine: a stream.ShardedEngine — the one engine
// the runtime constructs, at every shard count; with -shards 1 it runs on
// the caller's goroutine — plus the schema it was built for and the two
// methods that move its checkpoint document to and from a stream. Its
// methods are coordinator-confined except Snapshot, Subscribe, and
// BusDropped.
type Analyzer struct {
	*stream.ShardedEngine
	// Schema is the parsed cube schema.
	Schema *cube.Schema
	// Dims is the schema's dimension count.
	Dims int
	// Shards is the shard count.
	Shards int
	// cpDoc is WriteCheckpoint's document buffer, kept between checkpoints.
	cpDoc []byte
}

// Build parses the spec and constructs the engine. Callers must Close the
// analyzer when done.
func (c EngineConfig) Build() (*Analyzer, error) {
	spec, err := gen.ParseSpec(c.Spec + "T1") // reuse the D/L/C parser
	if err != nil {
		return nil, fmt.Errorf("bad -spec: %w", err)
	}
	schema, err := spec.StreamSchema()
	if err != nil {
		return nil, err
	}
	if c.Alg != "" && c.Alg != "mo" {
		return nil, fmt.Errorf("cubing algorithm %q: the node runs m/o-cubing only", c.Alg)
	}
	if c.Shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least 1", c.Shards)
	}
	tiltLevels, err := tilt.ParseLevels(c.Tilt)
	if err != nil {
		return nil, fmt.Errorf("bad -tilt: %w", err)
	}
	eng, err := stream.NewShardedEngine(stream.Config{
		Schema:           schema,
		TicksPerUnit:     c.TicksPerUnit,
		Threshold:        exception.Global(c.Threshold),
		TiltLevels:       tiltLevels,
		PublishSnapshots: c.PublishSnapshots,
	}, c.Shards)
	if err != nil {
		return nil, err
	}
	return &Analyzer{ShardedEngine: eng, Schema: schema, Dims: spec.Dims, Shards: c.Shards}, nil
}

// LoadCheckpoint restores engine state from a checkpoint stream; any
// persisted version loads at any shard count.
func (a *Analyzer) LoadCheckpoint(r io.Reader) error {
	cp, err := persist.ReadCheckpoint(r)
	if err != nil {
		return err
	}
	return a.Restore(cp)
}

// WriteCheckpoint exports engine state — what persist.WriteCheckpoint makes
// of Checkpoint, cut through buffers the engine and the analyzer keep — in
// one Write; the bytes depend on the stream position alone, not on the
// shard count.
func (a *Analyzer) WriteCheckpoint(w io.Writer) error {
	doc, err := a.AppendCheckpoint(a.cpDoc[:0])
	if err != nil {
		return err
	}
	a.cpDoc = doc
	_, err = w.Write(doc)
	return err
}
