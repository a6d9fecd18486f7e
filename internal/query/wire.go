package query

import (
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
	"repro/internal/stream"
	"repro/internal/timeseries"
)

// This file defines the wire form of the v2 query API: the JSON shapes a
// Response serializes to. They are transport-independent — the same
// structs travel over the GET endpoints, the POST /v1/query batch, and
// the Go client — and their field order and tags are frozen: existing GET
// consumers depend on these exact bytes (internal/serve's golden tests).

// ISBJSON is the wire form of a regression measure.
type ISBJSON struct {
	Tb    int64   `json:"tb"`
	Te    int64   `json:"te"`
	Base  float64 `json:"base"`
	Slope float64 `json:"slope"`
}

func encodeISB(isb regression.ISB) ISBJSON {
	return ISBJSON{Tb: isb.Tb, Te: isb.Te, Base: isb.Base, Slope: isb.Slope}
}

// IntervalJSON is the wire form of a closed tick interval.
type IntervalJSON struct {
	Tb int64 `json:"tb"`
	Te int64 `json:"te"`
}

func encodeInterval(iv timeseries.Interval) IntervalJSON {
	return IntervalJSON{Tb: iv.Tb, Te: iv.Te}
}

// CellJSON is the wire form of a retained cell: machine-usable coordinates
// (levels+members, round-trippable through CellRef) plus the
// human-readable rendering.
type CellJSON struct {
	Levels  []int   `json:"levels"`
	Members []int32 `json:"members"`
	Cuboid  string  `json:"cuboid"`
	Name    string  `json:"name"`
	ISB     ISBJSON `json:"isb"`
}

// CellRefJSON names the cell a request asked about, with its measure when
// the cell is retained (omitted otherwise).
type CellRefJSON struct {
	Levels  []int    `json:"levels"`
	Members []int32  `json:"members"`
	Name    string   `json:"name"`
	ISB     *ISBJSON `json:"isb,omitempty"`
}

func encodeKey(key cube.CellKey) (levels []int, members []int32) {
	nd := key.Cuboid.NumDims()
	levels = make([]int, nd)
	members = make([]int32, nd)
	for d := 0; d < nd; d++ {
		levels[d] = key.Cuboid.Level(d)
		members[d] = key.Member(d)
	}
	return levels, members
}

func encodeCell(s *cube.Schema, c core.Cell) CellJSON {
	levels, members := encodeKey(c.Key)
	return CellJSON{
		Levels:  levels,
		Members: members,
		Cuboid:  c.Key.Cuboid.Describe(s),
		Name:    c.Key.Describe(s),
		ISB:     encodeISB(c.ISB),
	}
}

// encodeCells never returns nil, so empty result sets serialize as [] and
// not null.
func encodeCells(s *cube.Schema, cells []core.Cell) []CellJSON {
	out := make([]CellJSON, len(cells))
	for i, c := range cells {
		out[i] = encodeCell(s, c)
	}
	return out
}

// AlertJSON is the wire form of one o-layer alert with its drill-down.
type AlertJSON struct {
	Unit       int64      `json:"unit"`
	Kind       string     `json:"kind"`
	Cell       CellJSON   `json:"cell"`
	Supporters []CellJSON `json:"supporters"`
}

// encodeAlert lists a slope exception's supporters from its unit's result;
// a slope change has none.
func encodeAlert(s *cube.Schema, res *core.Result, a stream.Alert) AlertJSON {
	out := AlertJSON{
		Unit:       a.Unit,
		Kind:       a.Kind.String(),
		Cell:       encodeCell(s, core.Cell{Key: a.Cell, ISB: a.ISB}),
		Supporters: []CellJSON{},
	}
	if a.Kind == stream.SlopeException {
		out.Supporters = make([]CellJSON, 0, res.NumSupporters(a.Cell))
		for c := range res.Supporters(a.Cell) {
			out.Supporters = append(out.Supporters, encodeCell(s, c))
		}
	}
	return out
}

// HistoryPointJSON is one completed unit of an o-cell's trend history.
type HistoryPointJSON struct {
	Unit int64   `json:"unit"`
	ISB  ISBJSON `json:"isb"`
}

// StatsJSON is the wire form of a unit's cube-computation cost measures.
type StatsJSON struct {
	Algorithm       string `json:"algorithm"`
	Tuples          int    `json:"tuples"`
	TreeNodes       int    `json:"treeNodes"`
	CuboidsComputed int    `json:"cuboidsComputed"`
	CellsComputed   int64  `json:"cellsComputed"`
	CellsRetained   int64  `json:"cellsRetained"`
	BytesRetained   int64  `json:"bytesRetained"`
	BuildNanos      int64  `json:"buildNanos"`
	CubeNanos       int64  `json:"cubeNanos"`
}

// CuboidSummaryJSON is the wire form of one cuboid's exception rollup.
type CuboidSummaryJSON struct {
	Levels      []int   `json:"levels"`
	Name        string  `json:"name"`
	Exceptions  int     `json:"exceptions"`
	MaxAbsSlope float64 `json:"maxAbsSlope"`
}

// FrameLevelJSON is one granularity of a frame listing.
type FrameLevelJSON struct {
	Level int    `json:"level"`
	Name  string `json:"name"`
	// UnitTicks is the raw-tick span of one slot at this level.
	UnitTicks int64 `json:"unitTicks"`
	// Capacity is the level's retention bound in slots (64 for the default
	// chain's one "unit" level).
	Capacity  int   `json:"capacity"`
	Completed int64 `json:"completed"`
	// Slots list the retained units oldest first. Unit is the frame-local
	// ordinal at this level (add base for engine units at the finest
	// level).
	Slots []HistoryPointJSON `json:"slots"`
}
