package persist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exception"
	"repro/internal/gen"
	"repro/internal/stream"
)

func dataset(t *testing.T) *gen.Dataset {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Spec: gen.Spec{Dims: 2, Levels: 2, Fanout: 3, Tuples: 200}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestResultRoundTrip(t *testing.T) {
	ds := dataset(t)
	res, err := core.MOCubing(ds.Schema, ds.Inputs, exception.Global(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats.Algorithm != "m/o-cubing" {
		t.Fatalf("algorithm = %q", back.Stats.Algorithm)
	}
	if back.NumOCells() != res.NumOCells() || back.NumExceptions() != res.NumExceptions() {
		t.Fatalf("sizes: o %d/%d exc %d/%d",
			back.NumOCells(), res.NumOCells(), back.NumExceptions(), res.NumExceptions())
	}
	for _, c := range res.OCells() {
		key, want := c.Key, c.ISB
		got, ok := back.OCell(key)
		if !ok || got != want {
			t.Fatalf("o-cell %v: %v vs %v", key, got, want)
		}
	}
	for _, c := range res.ExceptionCells() {
		key, want := c.Key, c.ISB
		got, ok := back.Exception(key)
		if !ok || got != want {
			t.Fatalf("exception %v: %v vs %v", key, got, want)
		}
	}
}

func TestWriteResultNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResult(&buf, nil); err == nil {
		t.Fatal("expected nil-result error")
	}
}

func TestReadResultErrors(t *testing.T) {
	ds := dataset(t)
	if _, err := ReadResult(strings.NewReader("not json"), ds.Schema); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadResult(strings.NewReader(`{"version":99,"dims":2}`), ds.Schema); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := ReadResult(strings.NewReader(`{"version":1,"dims":5}`), ds.Schema); err == nil {
		t.Fatal("expected dims mismatch error")
	}
	bad := `{"version":1,"dims":2,"oLayer":[{"levels":[1],"members":[0,0],"isb":{}}]}`
	if _, err := ReadResult(strings.NewReader(bad), ds.Schema); err == nil {
		t.Fatal("expected malformed cell error")
	}
}

func streamEngine(t *testing.T) (*stream.Engine, *cube.Schema) {
	t.Helper()
	h, _ := cube.NewFanoutHierarchy("A", 2, 2)
	schema, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := stream.NewEngine(stream.Config{
		Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, schema
}

func TestRestoreValidatesSchema(t *testing.T) {
	a, _ := streamEngine(t)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Different fanout → different m-level cardinality → reject.
	h2, _ := cube.NewFanoutHierarchy("A", 3, 2)
	schema2, err := cube.NewSchema(cube.Dimension{Name: "A", Hierarchy: h2, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.NewEngine(stream.Config{
		Schema: schema2, TicksPerUnit: 4, Threshold: exception.Global(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err == nil {
		t.Fatal("expected schema-shape rejection")
	}
	if err := b.Restore(nil); err == nil {
		t.Fatal("expected nil-checkpoint rejection")
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("garbage")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("expected empty-checkpoint error")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version":2}`)); err == nil {
		t.Fatal("expected no-shards error")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version":2,"shards":[null]}`)); err == nil {
		t.Fatal("expected nil-shard error")
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, nil); err == nil {
		t.Fatal("expected nil-checkpoint write error")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/v5_single.ckpt from the current writer")

// Files of every version still resume. The fixtures were written by the
// releases that had those writers, all from the same records (14 ticks,
// cut mid-unit with 3 units closed, watermark 56): a flat-history single
// file (version 1), its per-shard twin from 3 shards (version 2), the
// tilted pair (version 3, whose frames sit next to a derived history), the
// frames-only JSON file (version 4) and the binary golden (version 5).
// ReadCheckpoint merges a per-shard file into its single twin, and each
// file restores at any shard count onto exactly the state of an engine
// that ran the records itself — the same version-5 bytes at the cut (the
// golden's own, so the layout is pinned) and after running on. Bound: a
// frame restores exactly under its own chain (versions 3 to 5) for any
// length of run; a version 1/2 history reseeds the very frame the
// uninterrupted run built as long as the writer had evicted nothing from
// it, i.e. the cell had fewer than that release's 64 retained units
// (here 3).
func TestShardedCheckpointCrossVersion(t *testing.T) {
	tiltCfg, schema := tiltedStreamConfig(t)
	flatCfg := stream.Config{Schema: schema, TicksPerUnit: 4, Threshold: exception.Global(0.5)}
	file := func(cp *stream.Checkpoint, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(name string) *stream.Checkpoint {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return cp
	}
	const golden = "v5_single.ckpt"
	for _, c := range []struct {
		files []string // the first two are a per-shard file and its single twin
		cfg   stream.Config
	}{
		{[]string{"v2_sharded.json", "v1_single.json"}, flatCfg},
		{[]string{"v3_sharded_tilt.json", "v3_single_tilt.json", "v4_single.json", golden}, tiltCfg},
	} {
		eng, err := stream.NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedUnits(t, eng.Ingest, 0, 14)
		eng.SetWALSeq(56)
		wantCut := file(eng.Checkpoint())
		feedUnits(t, eng.Ingest, 14, 41)
		wantFinal := file(eng.Checkpoint())

		if c.files[len(c.files)-1] == golden {
			path := filepath.Join("testdata", golden)
			if *updateGolden {
				if err := os.WriteFile(path, wantCut, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, wantCut) {
				t.Fatalf("the writer no longer produces %s (err %v): a layout change needs a new version, not new bytes under this one", golden, err)
			}
		}
		if !reflect.DeepEqual(read(c.files[0]), read(c.files[1])) {
			t.Fatalf("%s does not merge into its twin %s", c.files[0], c.files[1])
		}
		for _, name := range c.files {
			for _, shards := range []int{1, 2, 4, 5} {
				c.cfg.Shards = shards
				dst, err := stream.NewEngine(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()
				if err := dst.Restore(read(name)); err != nil {
					t.Fatalf("%s into %d shards: %v", name, shards, err)
				}
				if got := file(dst.Checkpoint()); !bytes.Equal(got, wantCut) {
					t.Fatalf("%s restored into %d shards checkpoints as\n%x\nwant the uninterrupted run's\n%x", name, shards, got, wantCut)
				}
				feedUnits(t, dst.Ingest, 14, 41)
				if got := file(dst.Checkpoint()); !bytes.Equal(got, wantFinal) {
					t.Fatalf("%s resumed at %d shards ends in a different state than the uninterrupted run", name, shards)
				}
			}
		}
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	ds := dataset(t)
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	inputs, err := gen.ReadCSV(&buf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != len(ds.Inputs) {
		t.Fatalf("tuples = %d, want %d", len(inputs), len(ds.Inputs))
	}
	for i := range inputs {
		if inputs[i].Measure != ds.Inputs[i].Measure {
			t.Fatalf("tuple %d measure %v vs %v", i, inputs[i].Measure, ds.Inputs[i].Measure)
		}
		for d := range inputs[i].Members {
			if inputs[i].Members[d] != ds.Inputs[i].Members[d] {
				t.Fatalf("tuple %d members differ", i)
			}
		}
	}
	// Loaded inputs must cube identically.
	a, err := core.MOCubing(ds.Schema, ds.Inputs, exception.Global(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.MOCubing(ds.Schema, inputs, exception.Global(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumExceptions() != b.NumExceptions() {
		t.Fatal("round-tripped dataset cubes differently")
	}
}

func TestReadCSVErrors(t *testing.T) {
	ds := dataset(t)
	cases := []string{
		"",
		"dim0,dim1,tb,te,base,slope\nx,0,0,9,1,1\n",
		"dim0,dim1,tb,te,base,slope\n99,0,0,9,1,1\n",
		"dim0,dim1,tb,te,base,slope\n0,0,x,9,1,1\n",
		"dim0,dim1,tb,te,base,slope\n0,0,0,x,1,1\n",
		"dim0,dim1,tb,te,base,slope\n0,0,9,0,1,1\n",
		"dim0,dim1,tb,te,base,slope\n0,0,0,9,x,1\n",
		"dim0,dim1,tb,te,base,slope\n0,0,0,9,1,x\n",
		"dim0,dim1,tb,te,base,slope\n0,0,0,9,1,NaN\n",
		"dim0,tb,te,base,slope\n0,0,9,1,1\n", // wrong column count
	}
	for i, c := range cases {
		if _, err := gen.ReadCSV(strings.NewReader(c), ds.Schema); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
