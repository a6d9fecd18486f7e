package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/exception"
	"repro/internal/stream"
)

// TestLegacyHistoryRejections: a flat history that is not strictly
// increasing closed units on one unit grid is refused where it is
// converted into frames — ErrFormat from ReadCheckpoint — and one that is
// on a grid other than the engine's is refused by Restore. Either would
// otherwise seed frames that restore silently and poison later
// promotions.
func TestLegacyHistoryRejections(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_single.json")
	if err != nil {
		t.Fatal(err)
	}
	_, schema := tiltedStreamConfig(t)
	restore := func(doc []byte) error {
		cp, err := ReadCheckpoint(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		eng, err := stream.NewEngine(stream.Config{Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5)})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Restore(cp)
	}
	if err := restore(raw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		want error
		mut  func(cp *legacyCheckpoint)
	}{
		{"duplicate unit", ErrFormat, func(cp *legacyCheckpoint) {
			cp.History[0].Entries[1].Unit = cp.History[0].Entries[0].Unit
		}},
		{"decreasing unit", ErrFormat, func(cp *legacyCheckpoint) {
			e := cp.History[0].Entries
			e[0].Unit, e[1].Unit = e[1].Unit, e[0].Unit
		}},
		{"negative unit", ErrFormat, func(cp *legacyCheckpoint) { cp.History[0].Entries[0].Unit = -1 }},
		{"unit at or beyond open", ErrFormat, func(cp *legacyCheckpoint) {
			e := cp.History[0].Entries
			e[len(e)-1].Unit = cp.Unit
		}},
		{"off-grid interval", ErrFormat, func(cp *legacyCheckpoint) {
			e := cp.History[0].Entries
			e[1].ISB.Tb++
			e[1].ISB.Te++
		}},
		{"span past the bound", ErrFormat, func(cp *legacyCheckpoint) { cp.Unit = maxLegacyUnits + 1 }},
		{"units off the engine's ticks", stream.ErrConfig, func(cp *legacyCheckpoint) {
			e := cp.History[0].Entries
			e[0].Unit, e[1].Unit = e[1].Unit, e[1].Unit+1 // units 1,2 carry the ticks of 0,1
			cp.History[0].Entries = e[:2]
		}},
	} {
		var doc legacyDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		tc.mut(doc.Checkpoint)
		spoilt, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := restore(spoilt); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
