package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/tilt"
)

var fixtures = filepath.Join("..", "..", "internal", "persist", "testdata")

// TestMergeAnyVersionWritesV5: merge reads the files of every release and
// writes the binary document — the flat per-unit history of versions 1
// and 2 included, which the reader converts into frames.
func TestMergeAnyVersionWritesV5(t *testing.T) {
	out := filepath.Join(t.TempDir(), "merged.ckpt")
	for _, name := range []string{"v1_single.json", "v2_sharded.json", "v3_sharded_tilt.json", "v4_single.json", "v5_single.ckpt"} {
		if err := runMerge([]string{"-o", out, filepath.Join(fixtures, name)}, &bytes.Buffer{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := os.ReadFile(out)
		if err != nil || !bytes.HasPrefix(doc, []byte("RCCP\x05")) {
			t.Fatalf("%s merged into %.8q (err %v), want a version 5 document", name, doc, err)
		}
		if err := os.Remove(out); err != nil {
			t.Fatal(err)
		}
	}
	// The same file twice is not two disjoint partitions: refused, with
	// no output file left behind.
	v5 := filepath.Join(fixtures, "v5_single.ckpt")
	err := runMerge([]string{"-o", out, v5, v5}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "share") {
		t.Fatalf("the same file twice: err = %v, want a refusal naming the shared cell", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused merge left %s behind (stat: %v)", out, err)
	}
}

// TestMergeFlatHistoryRestoresLikeTheJSON: the v5 document merge writes
// from a version 1 or 2 file holds the very state the JSON file holds, the
// WAL watermark aside — restored at 1, 2 and 4 shards, under the default
// chain and the calendar chain, the two checkpoint the same bytes.
func TestMergeFlatHistoryRestoresLikeTheJSON(t *testing.T) {
	h, err := cube.NewFanoutHierarchy("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored := func(cfg stream.Config, path string) []byte {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cp, err := persist.ReadCheckpoint(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cp.WALSeq = 0 // a merged file belongs to no log
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.Restore(cp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if cp, err = eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := persist.WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range []string{"v1_single.json", "v2_sharded.json"} {
		merged := filepath.Join(t.TempDir(), "merged.ckpt")
		if err := runMerge([]string{"-o", merged, filepath.Join(fixtures, name)}, &bytes.Buffer{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, chain := range [][]tilt.Level{nil, tilt.CalendarLevels()} {
			for _, shards := range []int{1, 2, 4} {
				cfg := stream.Config{Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5),
					TiltLevels: chain, Shards: shards}
				if a, b := restored(cfg, merged), restored(cfg, filepath.Join(fixtures, name)); !bytes.Equal(a, b) {
					t.Fatalf("%s at %d shards, %d-level chain: merged file restores as\n%x\nthe JSON as\n%x",
						name, shards, len(chain), a, b)
				}
			}
		}
	}
}
