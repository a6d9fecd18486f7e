package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
)

// FuzzReadCheckpoint: whatever the bytes, ReadCheckpoint does not panic,
// every refusal is ErrFormat, and every checkpoint it accepts can be
// written — a version 5 input back to the very bytes it was — and reads
// back to what writes the same bytes again. Seeded with every checkpoint
// file of every version the tests keep.
func FuzzReadCheckpoint(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) < 7 {
		f.Fatalf("found %d seed files: %v", len(seeds), seeds)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("refusal %v is not ErrFormat", err)
			}
			return
		}
		var doc bytes.Buffer
		if err := WriteCheckpoint(&doc, cp); err != nil {
			t.Fatalf("accepted checkpoint does not write: %v", err)
		}
		if stream.IsCheckpointDocument(data) && !bytes.Equal(doc.Bytes(), data) {
			t.Fatal("a version 5 document writes back to other bytes")
		}
		back, err := ReadCheckpoint(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatalf("written checkpoint does not read: %v", err)
		}
		var again bytes.Buffer
		if err := WriteCheckpoint(&again, back); err != nil || !bytes.Equal(again.Bytes(), doc.Bytes()) {
			t.Fatalf("checkpoint does not round-trip (err %v)", err)
		}
	})
}
