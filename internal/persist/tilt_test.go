package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/stream"
	"repro/internal/tilt"
)

func tiltedStreamConfig(t *testing.T) (stream.Config, *cube.Schema) {
	t.Helper()
	h, _ := cube.NewFanoutHierarchy("A", 2, 2)
	schema, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5),
		TiltLevels: []tilt.Level{
			{Name: "q", Multiple: 1, Slots: 3},
			{Name: "h", Multiple: 3, Slots: 2},
		},
	}, schema
}

func feedUnits(t *testing.T, ing func([]int32, int64, float64) ([]*stream.Snapshot, error), from, to int64) {
	t.Helper()
	for tk := from; tk < to; tk++ {
		for m := int32(0); m < 4; m++ {
			if _, err := ing([]int32{m}, tk, float64(tk)*float64(m+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointWritesV5 asserts the one layout: the version 5 binary
// document whatever the level chain and whichever engine cut the
// checkpoint, with the trend history as frames only — no history section,
// each slot once.
func TestCheckpointWritesV5(t *testing.T) {
	tilted, _ := tiltedStreamConfig(t)
	def := tilted
	def.TiltLevels = nil
	for name, cfg := range map[string]stream.Config{"default": def, "tilted": tilted} {
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedUnits(t, eng.Ingest, 0, 10)
		cfg.Shards = 2
		seng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer seng.Close()
		feedUnits(t, seng.Ingest, 0, 10)
		scp, err := seng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		cp1, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for kind, cp := range map[string]*stream.Checkpoint{"engine": cp1, "sharded": scp} {
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, cp); err != nil {
				t.Fatal(err)
			}
			doc := buf.Bytes()
			if !bytes.HasPrefix(doc, []byte("RCCP\x05")) || stream.CheckpointWireVersion != 5 {
				t.Fatalf("%s %s checkpoint starts %q, want the RCCP magic and version 5", name, kind, doc[:8])
			}
			if bytes.Contains(doc, []byte("history")) {
				t.Fatalf("%s %s checkpoint carries a history section", name, kind)
			}
			// 2 closed units × 2 o-cells: each unit's regression appears
			// once, as the interval [0,3] in little-endian.
			unit0 := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0), 3)
			if n := bytes.Count(doc, unit0); n != 2 {
				t.Fatalf("%s %s checkpoint names unit 0's interval %d times, want once per o-cell", name, kind, n)
			}
			back, err := ReadCheckpoint(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, cp) {
				t.Fatalf("%s %s checkpoint reads back as\n%+v\nwrote\n%+v", name, kind, back, cp)
			}
		}
	}
}

// TestReadCheckpointRejectsDamagedV5: a torn, bit-flipped, padded or
// future-version document is ErrFormat naming the offset and the kind of
// damage — never a panic, never a silently different state.
func TestReadCheckpointRejectsDamagedV5(t *testing.T) {
	good, err := os.ReadFile("testdata/v5_single.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	// The cell count sits after the header (6), three counters (24) and the
	// one dimension's shape: name "A" (4+1) and three integers (24).
	const cellCount = 6 + 24 + 5 + 24
	for name, c := range map[string]struct {
		doc  []byte
		want string
	}{
		"torn":           {good[:len(good)/2], "bytes that remain"},
		"no trailer":     {good[:len(good)-4], "truncated"},
		"flipped bit":    {mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }), "crc32c"},
		"flipped crc":    {mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), fmt.Sprintf("offset %d: crc32c", len(good)-4)},
		"trailing bytes": {append(bytes.Clone(good), 0, 0), "2 trailing bytes"},
		"future version": {mutate(func(b []byte) []byte { b[4] = 6; return b }), "offset 4: version 6, want 5"},
		"no dimensions":  {mutate(func(b []byte) []byte { b[5] = 0; return b }), "offset 5: 0 dimensions"},
		"huge count": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[cellCount:], 1<<30)
			return b
		}), fmt.Sprintf("offset %d: count 1073741824 exceeds", cellCount+4)},
	} {
		_, err := ReadCheckpoint(bytes.NewReader(c.doc))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrFormat mentioning %q", name, err, c.want)
		}
	}
}

// TestV2LoadsIntoTiltedEngine is the forward-compat direction: a pre-tilt
// per-shard file (the version 2 fixture: 3 flat shards at tick 14)
// restores into a tilt-configured engine by reseeding its frames.
func TestV2LoadsIntoTiltedEngine(t *testing.T) {
	cfg, _ := tiltedStreamConfig(t)
	v2File, err := os.ReadFile("testdata/v2_sharded.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v2File), `"version":2`) {
		t.Fatalf("fixture is not v2: %.80s", v2File)
	}

	tilted, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(v2File))
	if err != nil {
		t.Fatal(err)
	}
	if err := tilted.Restore(cp); err != nil {
		t.Fatal(err)
	}
	// The seeded frames answer coarse trends right away (3 closed units
	// per "hour"; 14 ticks close 3 units, so one hour exists).
	ocell := cube.NewCellKey(cube.MustCuboid(1), 0)
	if _, err := tilted.TrendQueryAt(ocell, 1, 1); err != nil {
		t.Fatalf("seeded tilt engine has no hour trend: %v", err)
	}
}

// TestV3EnvelopeValidation rejects malformed envelopes of every version.
func TestV3EnvelopeValidation(t *testing.T) {
	bad := []string{
		`{"version":3}`,
		`{"version":3,"checkpoint":{"unit":0},"shards":[{"unit":0}]}`,
		`{"version":3,"shards":[]}`,
		`{"version":3,"shards":[null]}`,
		`{"version":4,"shards":[{"unit":0}]}`,
		`{"version":5,"checkpoint":{"unit":0}}`,
		// Mixed layouts are ambiguous at every version: silently preferring
		// the stray single checkpoint would drop the shard data.
		`{"version":1,"checkpoint":{"unit":0},"shards":[{"unit":0}]}`,
		`{"version":2,"checkpoint":{"unit":0},"shards":[{"unit":0},{"unit":0}]}`,
		`{"version":2,"checkpoint":{"unit":0}}`,
	}
	for i, doc := range bad {
		if _, err := ReadCheckpoint(strings.NewReader(doc)); err == nil {
			t.Fatalf("case %d restored silently: %s", i, doc)
		}
	}
}
