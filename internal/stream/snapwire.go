package stream

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/tilt"
	"repro/internal/timeseries"
)

// This file is the snapshot wire codec: the JSON document a node's
// GET /v1/snapshot ships and the cluster coordinator's gather tier
// decodes and merges. It lives in this package (not internal/serve or
// internal/cluster) because it is the third leg of the snapshot
// contract — publish (snapshot.go), merge (sharded.go), and now
// transfer — and both the server and the coordinator need it without
// importing each other.
//
// Cells travel in coordinate form — per-dimension levels and members,
// exactly like checkpoints — and every cell list is sorted canonically
// (cube.CompareKeys), so encoding is deterministic: two nodes holding
// equal state encode equal bytes.

// snapCell is one retained cell: coordinates plus measure.
type snapCell struct {
	Levels  []int          `json:"levels"`
	Members []int32        `json:"members"`
	ISB     regression.ISB `json:"isb"`
}

// snapAlert is one alert with its drill-down supporters.
type snapAlert struct {
	Unit  int64      `json:"unit"`
	Kind  int        `json:"kind"`
	Cell  snapCell   `json:"cell"`
	Drill []snapCell `json:"drill,omitempty"`
}

// snapHistory is one o-cell's trailing flat history, oldest first.
type snapHistory struct {
	Levels  []int          `json:"levels"`
	Members []int32        `json:"members"`
	Points  []HistoryPoint `json:"points"`
}

// snapFrameLevel is one granularity of a tilted frame.
type snapFrameLevel struct {
	Name      string      `json:"name"`
	UnitTicks int64       `json:"unitTicks"`
	Capacity  int         `json:"capacity"`
	Completed int64       `json:"completed"`
	Slots     []tilt.Slot `json:"slots"`
}

// snapFrame is one o-cell's tilted frame view.
type snapFrame struct {
	Levels  []int            `json:"levels"`
	Members []int32          `json:"members"`
	Base    int64            `json:"base"`
	Frame   []snapFrameLevel `json:"frame"`
}

// snapPath is one materialized popular-path cuboid with its cells.
type snapPath struct {
	Levels []int      `json:"levels"`
	Cells  []snapCell `json:"cells"`
}

// snapshotDoc is the complete wire document.
type snapshotDoc struct {
	Version    int                 `json:"version"`
	Unit       int64               `json:"unit"`
	Interval   timeseries.Interval `json:"interval"`
	UnitsDone  int64               `json:"unitsDone"`
	Empty      bool                `json:"empty"`
	OLayer     []snapCell          `json:"oLayer,omitempty"`
	Exceptions []snapCell          `json:"exceptions,omitempty"`
	PathCells  []snapPath          `json:"pathCells,omitempty"`
	Stats      *core.Stats         `json:"stats,omitempty"`
	Alerts     []snapAlert         `json:"alerts,omitempty"`
	History    []snapHistory       `json:"history,omitempty"`
	// Tilted distinguishes "no tilt configured" (false, Frames absent)
	// from "tilt on, no cells yet" (true, Frames empty).
	Tilted bool        `json:"tilted,omitempty"`
	Frames []snapFrame `json:"frames,omitempty"`
}

// snapshotWireVersion is the /v1/snapshot document version.
const snapshotWireVersion = 1

func cellCoords(k cube.CellKey) ([]int, []int32) {
	nd := k.Cuboid.NumDims()
	levels := make([]int, nd)
	members := make([]int32, nd)
	for d := 0; d < nd; d++ {
		levels[d] = k.Cuboid.Level(d)
		members[d] = k.Members[d]
	}
	return levels, members
}

func encodeCellList(m map[cube.CellKey]regression.ISB) []snapCell {
	keys := make([]cube.CellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cube.CompareKeys)
	out := make([]snapCell, len(keys))
	for i, k := range keys {
		levels, members := cellCoords(k)
		out[i] = snapCell{Levels: levels, Members: members, ISB: m[k]}
	}
	return out
}

// EncodeSnapshot serializes a published snapshot into the /v1/snapshot
// wire document. Encoding is deterministic: every cell list, alert, and
// history entry is emitted in canonical key order.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrRecord)
	}
	doc := snapshotDoc{
		Version:   snapshotWireVersion,
		Unit:      s.Unit,
		Interval:  s.Interval,
		UnitsDone: s.UnitsDone,
		Empty:     s.Result == nil,
	}
	if s.Result != nil {
		doc.OLayer = encodeCellList(s.Result.OLayer)
		doc.Exceptions = encodeCellList(s.Result.Exceptions)
		if s.Result.PathCells != nil {
			doc.PathCells = make([]snapPath, 0, len(s.Result.PathCells))
			for cb, cells := range s.Result.PathCells {
				levels := make([]int, cb.NumDims())
				for d := range levels {
					levels[d] = cb.Level(d)
				}
				doc.PathCells = append(doc.PathCells, snapPath{Levels: levels, Cells: encodeCellList(cells)})
			}
			slices.SortFunc(doc.PathCells, func(a, b snapPath) int { return slices.Compare(a.Levels, b.Levels) })
		}
		stats := s.Result.Stats
		doc.Stats = &stats
	}
	// Snapshot alerts are canonical as published.
	doc.Alerts = make([]snapAlert, len(s.Alerts))
	for i, a := range s.Alerts {
		levels, members := cellCoords(a.Cell)
		sa := snapAlert{Unit: a.Unit, Kind: int(a.Kind), Cell: snapCell{Levels: levels, Members: members, ISB: a.ISB}}
		for _, d := range a.Drill {
			dl, dm := cellCoords(d.Key)
			sa.Drill = append(sa.Drill, snapCell{Levels: dl, Members: dm, ISB: d.ISB})
		}
		doc.Alerts[i] = sa
	}
	histKeys := make([]cube.CellKey, 0, len(s.History))
	for k := range s.History {
		histKeys = append(histKeys, k)
	}
	slices.SortFunc(histKeys, cube.CompareKeys)
	doc.History = make([]snapHistory, len(histKeys))
	for i, k := range histKeys {
		levels, members := cellCoords(k)
		doc.History[i] = snapHistory{Levels: levels, Members: members, Points: s.History[k]}
	}
	if s.Frames != nil {
		doc.Tilted = true
		frameKeys := make([]cube.CellKey, 0, len(s.Frames))
		for k := range s.Frames {
			frameKeys = append(frameKeys, k)
		}
		slices.SortFunc(frameKeys, cube.CompareKeys)
		doc.Frames = make([]snapFrame, len(frameKeys))
		for i, k := range frameKeys {
			v := s.Frames[k]
			levels, members := cellCoords(k)
			sf := snapFrame{Levels: levels, Members: members, Base: v.Base}
			for _, lv := range v.Levels {
				sf.Frame = append(sf.Frame, snapFrameLevel{
					Name: lv.Name, UnitTicks: lv.UnitTicks, Capacity: lv.Capacity,
					Completed: lv.Completed, Slots: lv.Slots,
				})
			}
			doc.Frames[i] = sf
		}
	}
	return json.Marshal(&doc)
}

// decodeKey validates coordinate-form cell coordinates against the schema
// dimension count and assembles the CellKey.
func decodeKey(schema *cube.Schema, levels []int, members []int32) (cube.CellKey, error) {
	if len(levels) != len(schema.Dims) || len(members) != len(schema.Dims) {
		return cube.CellKey{}, fmt.Errorf("%w: cell has %d levels and %d members for %d dimensions",
			ErrRecord, len(levels), len(members), len(schema.Dims))
	}
	cb, err := cube.NewCuboid(levels...)
	if err != nil {
		return cube.CellKey{}, fmt.Errorf("%w: %v", ErrRecord, err)
	}
	return cube.NewCellKey(cb, members...), nil
}

func decodeCellList(schema *cube.Schema, cells []snapCell) (map[cube.CellKey]regression.ISB, error) {
	out := make(map[cube.CellKey]regression.ISB, len(cells))
	for _, c := range cells {
		k, err := decodeKey(schema, c.Levels, c.Members)
		if err != nil {
			return nil, err
		}
		out[k] = c.ISB
	}
	return out, nil
}

// DecodeSnapshot parses a /v1/snapshot document back into a Snapshot. The
// schema supplies the dimension count the coordinates are validated
// against; the returned snapshot's Result carries that schema, exactly as
// a local engine's would.
func DecodeSnapshot(schema *cube.Schema, data []byte) (*Snapshot, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: snapshot document: %v", ErrRecord, err)
	}
	if doc.Version != snapshotWireVersion {
		return nil, fmt.Errorf("%w: snapshot document version %d, want %d", ErrRecord, doc.Version, snapshotWireVersion)
	}
	s := &Snapshot{Unit: doc.Unit, Interval: doc.Interval, UnitsDone: doc.UnitsDone}
	if !doc.Empty {
		res := &core.Result{Schema: schema}
		var err error
		if res.OLayer, err = decodeCellList(schema, doc.OLayer); err != nil {
			return nil, err
		}
		if res.Exceptions, err = decodeCellList(schema, doc.Exceptions); err != nil {
			return nil, err
		}
		for _, p := range doc.PathCells {
			cb, err := cube.NewCuboid(p.Levels...)
			if err != nil {
				return nil, fmt.Errorf("%w: path cuboid: %v", ErrRecord, err)
			}
			cells, err := decodeCellList(schema, p.Cells)
			if err != nil {
				return nil, err
			}
			if res.PathCells == nil {
				res.PathCells = make(map[cube.Cuboid]map[cube.CellKey]regression.ISB, len(doc.PathCells))
			}
			res.PathCells[cb] = cells
		}
		if doc.Stats != nil {
			res.Stats = *doc.Stats
		}
		s.Result = res
	}
	if len(doc.Alerts) > 0 {
		s.Alerts = make([]Alert, len(doc.Alerts))
		for i, sa := range doc.Alerts {
			k, err := decodeKey(schema, sa.Cell.Levels, sa.Cell.Members)
			if err != nil {
				return nil, err
			}
			a := Alert{Unit: sa.Unit, Kind: AlertKind(sa.Kind), Cell: k, ISB: sa.Cell.ISB}
			for _, d := range sa.Drill {
				dk, err := decodeKey(schema, d.Levels, d.Members)
				if err != nil {
					return nil, err
				}
				a.Drill = append(a.Drill, core.Cell{Key: dk, ISB: d.ISB})
			}
			s.Alerts[i] = a
		}
	}
	s.History = make(map[cube.CellKey][]HistoryPoint, len(doc.History))
	for _, h := range doc.History {
		k, err := decodeKey(schema, h.Levels, h.Members)
		if err != nil {
			return nil, err
		}
		s.History[k] = h.Points
	}
	if doc.Tilted {
		s.Frames = make(map[cube.CellKey]*FrameView, len(doc.Frames))
		for _, f := range doc.Frames {
			k, err := decodeKey(schema, f.Levels, f.Members)
			if err != nil {
				return nil, err
			}
			v := &FrameView{Base: f.Base}
			for _, lv := range f.Frame {
				v.Levels = append(v.Levels, FrameLevelView{
					Name: lv.Name, UnitTicks: lv.UnitTicks, Capacity: lv.Capacity,
					Completed: lv.Completed, Slots: lv.Slots,
				})
			}
			s.Frames[k] = v
		}
	}
	return s, nil
}

// MergeSnapshots combines per-node snapshots of the same closed unit into
// the cluster-wide view, with exactly the union-and-merge semantics the
// sharded coordinator applies at its barriers (advanceTo): cell maps are
// disjoint by the partition invariant so merging is a union, the nodes'
// alert lists (canonical as published) merge into one canonical list, and
// per-node stats fold through mergeStats. Every snapshot must describe the same unit; mismatched
// units mean the gather tier fetched without aligning watermarks first.
func MergeSnapshots(schema *cube.Schema, snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots to merge", ErrRecord)
	}
	first := snaps[0]
	for _, s := range snaps[1:] {
		if s.Unit != first.Unit || s.UnitsDone != first.UnitsDone {
			return nil, fmt.Errorf("%w: snapshot units diverge (%d/%d done vs %d/%d done)",
				ErrRecord, s.Unit, s.UnitsDone, first.Unit, first.UnitsDone)
		}
		if s.Interval != first.Interval {
			return nil, fmt.Errorf("%w: snapshot intervals diverge at unit %d", ErrRecord, s.Unit)
		}
	}
	out := &Snapshot{
		Unit:      first.Unit,
		Interval:  first.Interval,
		UnitsDone: first.UnitsDone,
		History:   make(map[cube.CellKey][]HistoryPoint),
	}
	results := make([]*core.Result, len(snaps))
	alerts := make([][]Alert, len(snaps))
	for i, s := range snaps {
		results[i], alerts[i] = s.Result, s.Alerts
		for k, pts := range s.History {
			out.History[k] = pts
		}
		if s.Frames != nil {
			if out.Frames == nil {
				out.Frames = make(map[cube.CellKey]*FrameView)
			}
			for k, v := range s.Frames {
				out.Frames[k] = v
			}
		}
	}
	out.Result = unionResults(schema, results)
	out.Alerts = mergeAlerts(alerts)
	return out, nil
}
