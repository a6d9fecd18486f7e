package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/stream"
)

// lineWriter records every Write it receives.
type lineWriter struct{ writes [][]byte }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestReportGolden pins streamd's report: a seeded alert-heavy D3L3C4
// stream through Run, at one shard and at two, must print — one Write per
// line — exactly the reference rendering below: fmt verbs over member
// names spelled out as "<dim>.L<level>.<member>", every cuboid described
// on every line, alerts in canonical order with CompareKeys-ordered
// supporters. The production path names members through cube's
// append-style renderers and describes each cuboid once.
func TestReportGolden(t *testing.T) {
	const cells, units, ticksPerUnit = 400, 3, 5
	rng := rand.New(rand.NewSource(29))
	members := make([][]int32, cells)
	for i, idx := range rng.Perm(64 * 64 * 64)[:cells] {
		members[i] = []int32{int32(idx % 64), int32(idx / 64 % 64), int32(idx / 4096)}
	}
	type record struct {
		tick    int64
		members []int32
		value   float64
	}
	var recs []record
	var feed strings.Builder
	for u := 0; u < units; u++ {
		slopes := make([]float64, cells)
		for i := range slopes {
			slopes[i] = rng.NormFloat64()
		}
		for t := 0; t < ticksPerUnit; t++ {
			for i, m := range members {
				r := record{int64(u*ticksPerUnit + t), m, 5 + slopes[i]*float64(t)}
				recs = append(recs, r)
				fmt.Fprintf(&feed, "%d,%d,%d,%d,%g\n", r.tick, m[0], m[1], m[2], r.value)
			}
		}
	}

	// The reference: a plain engine's results, rendered the long way.
	cfg := EngineConfig{Spec: "D3L3C4", TicksPerUnit: ticksPerUnit, Threshold: 1, Shards: 1}
	ref, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want strings.Builder
	name := func(k cube.CellKey) string {
		parts := make([]string, k.Cuboid.NumDims())
		for d := range parts {
			parts[d] = fmt.Sprintf("D%d.L%d.%d", d, k.Cuboid.Level(d), k.Members[d])
			if k.Cuboid.Level(d) == 0 {
				parts[d] = "*"
			}
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	// A slope exception's supporters are the exception cells below it,
	// found by a scan of the canonical list.
	supportersOf := func(ur *stream.Snapshot, al stream.Alert) []core.Cell {
		var out []core.Cell
		if al.Kind != stream.SlopeException {
			return out
		}
		for _, c := range ur.Result.ExceptionCells() {
			if c.Key != al.Cell && cube.IsDescendantCell(ref.Schema, c.Key, al.Cell) {
				out = append(out, c)
			}
		}
		return out
	}
	render := func(ur *stream.Snapshot) {
		fmt.Fprintf(&want, "[unit %d] %s: %d o-cells, %d exceptions, %d alerts\n", ur.Unit,
			ur.Result.Stats.Algorithm, ur.Result.NumOCells(), ur.Result.NumExceptions(), len(ur.Alerts))
		for _, al := range ur.Alerts {
			fmt.Fprintf(&want, "  ALERT %s %s slope=%+.3f\n", al.Kind, name(al.Cell), al.ISB.Slope)
			for _, c := range supportersOf(ur, al) {
				cb := make([]string, c.Key.Cuboid.NumDims())
				for d := range cb {
					cb[d] = fmt.Sprintf("D%d%d", d, c.Key.Cuboid.Level(d))
					if c.Key.Cuboid.Level(d) == 0 {
						cb[d] = "*"
					}
				}
				fmt.Fprintf(&want, "    supporter %s (%s) slope=%+.3f\n", name(c.Key), strings.Join(cb, ", "), c.ISB.Slope)
			}
		}
	}
	for _, r := range recs {
		closed, err := ref.Ingest(r.members, r.tick, r.value)
		if err != nil {
			t.Fatal(err)
		}
		for _, ur := range closed {
			render(ur)
		}
	}
	last, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	render(last)
	supporters := 0
	for _, al := range last.Alerts {
		supporters += len(supportersOf(last, al))
	}
	if supporters < 1000 {
		t.Fatalf("the feed is not alert-heavy: %d supporters in the last unit", supporters)
	}
	fmt.Fprintf(&want, "# %d records, %d units\n", cells*units*ticksPerUnit, units)

	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		out := &lineWriter{}
		if err := Run(context.Background(), Config{Engine: cfg}, strings.NewReader(feed.String()), out); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, w := range out.writes {
			if n := bytes.Count(w, []byte("\n")); n != 1 || w[len(w)-1] != '\n' {
				t.Fatalf("shards=%d: write %d is not one line: %q", shards, i, w)
			}
		}
		if got := string(bytes.Join(out.writes, nil)); got != want.String() {
			t.Fatalf("shards=%d: report differs from the reference rendering (%d vs %d bytes); first lines:\n%.300s\nwant\n%.300s",
				shards, len(got), want.Len(), got, want.String())
		}
	}
}
