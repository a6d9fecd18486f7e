// Package persist serializes regression-cube artifacts: cubing results
// (the two critical layers plus exception cells) as JSON, and online-engine
// checkpoints as the binary document of internal/stream. The paper's design
// keeps only the critical layers "in memory or stored on disks" — this
// package is the disk half.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/stream"
)

// ErrFormat is returned for malformed or incompatible serialized data.
var ErrFormat = errors.New("persist: invalid format")

// formatVersion guards against silent cross-version decoding.
const formatVersion = 1

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
	for _, c := range res.OCells() {
		doc.OLayer = append(doc.OLayer, toRec(c.Key, c.ISB))
	}
	for _, c := range res.ExceptionCells() {
		doc.Exceptions = append(doc.Exceptions, toRec(c.Key, c.ISB))
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
	var lists [2][]core.Cell
	for i, recs := range [2][]cellRec{doc.OLayer, doc.Exceptions} {
		lists[i] = make([]core.Cell, len(recs))
		for j, rec := range recs {
			key, isb, err := fromRec(rec)
			if err != nil {
				return nil, err
			}
			lists[i][j] = core.Cell{Key: key, ISB: isb}
		}
		slices.SortFunc(lists[i], core.CompareCells) // older writers wrote table order
	}
	res, err := core.NewResult(schema, lists[0], lists[1], core.Stats{Algorithm: doc.Algorithm})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
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

// ReadCheckpoint deserializes a checkpoint of any version into the
// canonical form, which restores into an engine of any shard count and
// which WriteCheckpoint stores as it is. A version 5 document that is torn,
// corrupted or followed by anything is ErrFormat naming the offset and
// what is wrong there. The JSON envelopes of versions 1 to 4 are converted
// as they are read (readLegacyCheckpoint): the disjoint shards of a
// per-shard file merge (stream.MergeCheckpoints, which also checks that
// the shards were cut at one stream position), so shard-count changes
// between runs never strand a state file, and a flat per-unit history
// becomes one-level frames.
func ReadCheckpoint(r io.Reader) (*stream.Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if !stream.IsCheckpointDocument(data) {
		return readLegacyCheckpoint(data)
	}
	cp, err := stream.DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return cp, nil
}
