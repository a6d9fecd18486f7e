package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergeAnyVersionWritesV5: merge reads the JSON files of older
// releases and writes the binary document; inputs whose history is still
// the flat per-unit kind (versions 1 and 2) have no such document and are
// refused with the reason, leaving no output file.
func TestMergeAnyVersionWritesV5(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "persist", "testdata")
	out := filepath.Join(t.TempDir(), "merged.ckpt")
	for _, name := range []string{"v3_sharded_tilt.json", "v4_single.json", "v5_single.ckpt"} {
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
	err := runMerge([]string{"-o", out, filepath.Join(fixtures, "v2_sharded.json")}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "flat history") {
		t.Fatalf("version 2 input: err = %v, want a refusal naming the flat history", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused merge left %s behind (stat: %v)", out, err)
	}
}
