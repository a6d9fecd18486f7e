// Package persist serializes regression-cube artifacts: cubing results
// (the two critical layers plus exception cells) as JSON, and online-engine
// checkpoints as the binary document of internal/stream. The paper's design
// keeps only the critical layers "in memory or stored on disks" — this
// package is the disk half.
package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/stream"
)

// ErrFormat is returned for malformed or incompatible serialized data.
var ErrFormat = errors.New("persist: invalid format")

// formatVersion guards against silent cross-version decoding.
const formatVersion = 1

// Checkpoint envelope versions. One layout is written: the canonical
// stream.Checkpoint — the same bytes from a stream.Engine at any shard
// count — as the binary document of
// stream.AppendCheckpoint, version 5, whose trend history is the per-o-cell
// tilt frames and nothing else. Versions 1 to 4 were JSON: a flat per-unit
// history (version 1), one checkpoint per shard (version 2), frames next to
// a history derived from them, single or per shard (version 3), and frames
// only (version 4). ReadCheckpoint tells the two encodings apart by the
// document's magic and upgrades the JSON ones: per-shard files by merging
// the shards, a history that only repeats the frames by dropping it; and
// stream.Engine.Restore reseeds frames from a file that has only the flat
// history.
const (
	checkpointVersionFlat     = 1
	checkpointVersionPerShard = 2
	checkpointVersionTilted   = 3
	checkpointVersionFrames   = 4
)

// cellRec flattens one (cell, measure) pair.
type cellRec struct {
	Levels  []int          `json:"levels"`
	Members []int32        `json:"members"`
	ISB     regression.ISB `json:"isb"`
}

// resultDoc is the on-disk form of a core.Result.
type resultDoc struct {
	Version    int       `json:"version"`
	Algorithm  string    `json:"algorithm"`
	Dims       int       `json:"dims"`
	OLayer     []cellRec `json:"oLayer"`
	Exceptions []cellRec `json:"exceptions"`
}

func toRec(key cube.CellKey, isb regression.ISB) cellRec {
	rec := cellRec{ISB: isb}
	for d := 0; d < key.Cuboid.NumDims(); d++ {
		rec.Levels = append(rec.Levels, key.Cuboid.Level(d))
		rec.Members = append(rec.Members, key.Member(d))
	}
	return rec
}

func fromRec(rec cellRec) (cube.CellKey, regression.ISB, error) {
	if len(rec.Levels) == 0 || len(rec.Levels) != len(rec.Members) {
		return cube.CellKey{}, regression.ISB{}, fmt.Errorf("%w: cell with %d levels, %d members",
			ErrFormat, len(rec.Levels), len(rec.Members))
	}
	c, err := cube.NewCuboid(rec.Levels...)
	if err != nil {
		return cube.CellKey{}, regression.ISB{}, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return cube.NewCellKey(c, rec.Members...), rec.ISB, nil
}

// WriteResult serializes the retained layers of a cubing result.
func WriteResult(w io.Writer, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("%w: nil result", ErrFormat)
	}
	doc := resultDoc{
		Version:   formatVersion,
		Algorithm: res.Stats.Algorithm,
		Dims:      res.Schema.NumDims(),
	}
	for key, isb := range res.OLayer {
		doc.OLayer = append(doc.OLayer, toRec(key, isb))
	}
	for key, isb := range res.Exceptions {
		doc.Exceptions = append(doc.Exceptions, toRec(key, isb))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadResult deserializes a result written by WriteResult against the
// schema it was computed from. Stats and path cells are not round-tripped
// (they describe the computation, not the retained cube).
func ReadResult(r io.Reader, schema *cube.Schema) (*core.Result, error) {
	var doc resultDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, doc.Version, formatVersion)
	}
	if doc.Dims != schema.NumDims() {
		return nil, fmt.Errorf("%w: result has %d dimensions, schema %d", ErrFormat, doc.Dims, schema.NumDims())
	}
	res := &core.Result{
		Schema:     schema,
		OLayer:     make(map[cube.CellKey]regression.ISB, len(doc.OLayer)),
		Exceptions: make(map[cube.CellKey]regression.ISB, len(doc.Exceptions)),
	}
	res.Stats.Algorithm = doc.Algorithm
	for _, rec := range doc.OLayer {
		key, isb, err := fromRec(rec)
		if err != nil {
			return nil, err
		}
		res.OLayer[key] = isb
	}
	for _, rec := range doc.Exceptions {
		key, isb, err := fromRec(rec)
		if err != nil {
			return nil, err
		}
		res.Exceptions[key] = isb
	}
	return res, nil
}

// WriteCheckpoint serializes an engine checkpoint as the version 5
// document, in one Write.
func WriteCheckpoint(w io.Writer, cp *stream.Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("%w: nil checkpoint", ErrFormat)
	}
	doc, err := stream.AppendCheckpoint(nil, cp)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	_, err = w.Write(doc)
	return err
}

// checkpointDoc is the JSON envelope of versions 1 to 4, read only. Shards
// is the per-shard layout of versions 2 and 3.
type checkpointDoc struct {
	Version    int                  `json:"version"`
	Checkpoint *stream.Checkpoint   `json:"checkpoint,omitempty"`
	Shards     []*stream.Checkpoint `json:"shards,omitempty"`
}

// ReadCheckpoint deserializes a checkpoint of any version into the
// canonical form, which restores into an engine of any shard count. A
// version 5 document that is torn, corrupted or followed by anything is
// ErrFormat naming the offset and what is wrong there. For the JSON
// versions it is the one upgrade path: the disjoint shards of a per-shard
// file merge (stream.MergeCheckpoints, which also checks that the shards
// were cut at one stream position) into the checkpoint a current writer
// would have produced, so shard-count changes between runs never strand a
// state file, and a version 3 history — a copy of the frames' finest level
// — is dropped, so what is returned can be written again.
func ReadCheckpoint(r io.Reader) (*stream.Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if stream.IsCheckpointDocument(data) {
		cp, err := stream.DecodeCheckpoint(data)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		return cp, nil
	}
	var doc checkpointDoc
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	// Every version carries exactly one layout; a file with both (or
	// neither) is ambiguous, and the reader must not silently pick one —
	// choosing the stray single checkpoint over a shard set would drop
	// state.
	perShard := len(doc.Shards) > 0
	if (doc.Checkpoint != nil) == perShard {
		return nil, fmt.Errorf("%w: checkpoint needs exactly one of checkpoint/shards", ErrFormat)
	}
	switch doc.Version {
	case checkpointVersionFlat, checkpointVersionFrames:
		if perShard {
			return nil, fmt.Errorf("%w: version %d without a single checkpoint", ErrFormat, doc.Version)
		}
	case checkpointVersionPerShard:
		if !perShard {
			return nil, fmt.Errorf("%w: version 2 without shards", ErrFormat)
		}
	case checkpointVersionTilted:
		// v3 is v1- or v2-shaped with frames attached.
	default:
		return nil, fmt.Errorf("%w: JSON checkpoint of version %d, want %d to %d", ErrFormat,
			doc.Version, checkpointVersionFlat, checkpointVersionFrames)
	}
	cp := doc.Checkpoint
	if perShard {
		if cp, err = stream.MergeCheckpoints(doc.Shards); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	if len(cp.Tilt) > 0 {
		cp.History = nil
	}
	return cp, nil
}
