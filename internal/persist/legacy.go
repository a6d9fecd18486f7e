package persist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/tilt"
)

// Checkpoint envelope versions 1 to 4 were JSON: a flat per-unit history
// (version 1), one checkpoint per shard (version 2), frames next to a
// history derived from them, single or per shard (version 3), and frames
// only (version 4). They are read, never written: readLegacyCheckpoint
// converts each into the one stream.Checkpoint a current engine would have
// cut, which is then exactly what the version 5 document holds.
const (
	checkpointVersionFlat     = 1
	checkpointVersionPerShard = 2
	checkpointVersionTilted   = 3
	checkpointVersionFrames   = 4
)

// maxLegacyUnits bounds the frame slots the flat histories of one file may
// expand to (40 MB of them): zero-filling turns a few bytes naming a unit
// far in the past into one slot per unit since, and a damaged or hostile
// file must not take the node's memory with it.
const maxLegacyUnits = 1 << 20

// legacyDoc is the JSON envelope of versions 1 to 4. Shards is the
// per-shard layout of versions 2 and 3.
type legacyDoc struct {
	Version    int                 `json:"version"`
	Checkpoint *legacyCheckpoint   `json:"checkpoint,omitempty"`
	Shards     []*legacyCheckpoint `json:"shards,omitempty"`
}

// legacyCheckpoint is a checkpoint as versions 1 to 4 wrote it: History is
// the flat per-o-cell history of versions 1 and 2, which a version 3 file
// repeats from its frames' finest level.
type legacyCheckpoint struct {
	stream.Checkpoint
	History []cellHistory `json:"history"`
}

// cellHistory is one o-cell's flat history: the closed engine units it had
// data in, oldest first, each with the o-layer regression of that unit.
type cellHistory struct {
	Levels  []int       `json:"levels"`
	Members []int32     `json:"members"`
	Entries []tilt.Slot `json:"entries"`
}

// readLegacyCheckpoint reads a JSON envelope into the canonical
// checkpoint: the shards of a per-shard file merge, a version 3 history is
// dropped (it only repeats the frames), and a version 1 or 2 history
// becomes one-level frames (cellHistory.frame). The result goes through
// the version 5 codec, so what is returned is exactly what writing it
// stores.
func readLegacyCheckpoint(data []byte) (*stream.Checkpoint, error) {
	var doc legacyDoc
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
	legacy := doc.Shards
	if !perShard {
		legacy = []*legacyCheckpoint{doc.Checkpoint}
	}
	framed := false
	for i, lc := range legacy {
		if lc == nil {
			return nil, fmt.Errorf("%w: nil checkpoint part %d", ErrFormat, i)
		}
		framed = framed || len(lc.Tilt) > 0
	}
	parts := make([]*stream.Checkpoint, len(legacy))
	budget := int64(maxLegacyUnits)
	for i, lc := range legacy {
		for j := 0; j < len(lc.History) && !framed; j++ {
			cf, err := lc.History[j].frame(lc.Unit, &budget)
			if err != nil {
				return nil, err
			}
			if cf != nil {
				lc.Tilt = append(lc.Tilt, *cf)
			}
		}
		parts[i] = &lc.Checkpoint
	}
	cp, err := stream.MergeCheckpoints(parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	v5, err := stream.AppendCheckpoint(nil, cp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if cp, err = stream.DecodeCheckpoint(v5); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return cp, nil
}

// frame converts the history into the one-level frame an engine would have
// registered over the same units, in a checkpoint whose open unit is open:
// every unit from the first entry's to the last closed one, each the
// entry's regression or, for a unit the cell sat out, a zero regression
// over the unit's ticks. The entries must be strictly increasing closed
// units on one unit grid, which the first entry's unit and interval fix;
// Engine.Restore checks that grid against its own and reseeds the frame
// under its level chain. A history without entries has no frame.
func (h *cellHistory) frame(open int64, budget *int64) (*stream.CellFrame, error) {
	if len(h.Entries) == 0 {
		return nil, nil
	}
	first := h.Entries[0]
	ticks := first.ISB.N()
	if first.Unit < 0 || first.Unit >= open || ticks < 1 {
		return nil, fmt.Errorf("%w: history for cell %v starts with unit %d over ticks [%d,%d], checkpoint closed %d",
			ErrFormat, h.Members, first.Unit, first.ISB.Tb, first.ISB.Te, open)
	}
	units := open - first.Unit
	if *budget -= units; *budget < 0 {
		return nil, fmt.Errorf("%w: flat histories span more than %d units", ErrFormat, maxLegacyUnits)
	}
	f, err := tilt.NewUnitFrame([]tilt.Level{{Name: "unit", Multiple: 1, Slots: int(units)}})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	origin := first.ISB.Tb - first.Unit*ticks
	next := first.Unit
	zeroTo := func(u int64) error {
		for ; next < u; next++ {
			tb := origin + next*ticks
			if err := f.Push(regression.ISB{Tb: tb, Te: tb + ticks - 1}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range h.Entries {
		if e.Unit < next || e.Unit >= open {
			return nil, fmt.Errorf("%w: history for cell %v has unit %d after unit %d (want increasing units below %d)",
				ErrFormat, h.Members, e.Unit, next-1, open)
		}
		if err := zeroTo(e.Unit); err != nil {
			return nil, fmt.Errorf("%w: history for cell %v: %v", ErrFormat, h.Members, err)
		}
		if err := f.Push(e.ISB); err != nil {
			return nil, fmt.Errorf("%w: history for cell %v unit %d: %v", ErrFormat, h.Members, e.Unit, err)
		}
		next++
	}
	if err := zeroTo(open); err != nil {
		return nil, fmt.Errorf("%w: history for cell %v: %v", ErrFormat, h.Members, err)
	}
	return &stream.CellFrame{Levels: h.Levels, Members: h.Members, Base: first.Unit, Frame: f.State()}, nil
}
