package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFileLeavesNoTemporary: whichever step fails — the write, or
// the rename — the .tmp file is gone and what was at the path is untouched;
// a success replaces it and reports the bytes written.
func TestReplaceFileLeavesNoTemporary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	entries := func() []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	n, err := ReplaceFile(path, func(w io.Writer) error { _, err := w.Write([]byte("first")); return err })
	if err != nil || n != 5 {
		t.Fatalf("ReplaceFile = %d, %v", n, err)
	}
	boom := errors.New("boom")
	if _, err := ReplaceFile(path, func(w io.Writer) error {
		w.Write([]byte("half a docu"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write: err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" || len(entries()) != 1 {
		t.Fatalf("after a failed write the path holds %q among %v", got, entries())
	}

	// A directory in the way makes the rename fail after a good write.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaceFile(blocked, func(w io.Writer) error { _, err := w.Write([]byte("doc")); return err }); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := entries(); len(names) != 2 {
		t.Fatalf("after a failed rename the directory holds %v", names)
	}
}
