package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBatchBothAlgorithms: the batch session is where popular-path cubing
// runs for users; -alg both prints one block per algorithm, m/o first.
func TestBatchBothAlgorithms(t *testing.T) {
	var out bytes.Buffer
	if err := runBatch([]string{"-spec", "D2L2C3T300", "-alg", "both", "-top", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	mo, pp := strings.Index(got, "== m/o-cubing =="), strings.Index(got, "== popular-path ==")
	if mo < 0 || pp < mo {
		t.Fatalf("want an m/o-cubing block then a popular-path block, got:\n%s", got)
	}
	if !strings.Contains(got, "calibrated threshold") || !strings.Contains(got, "o-layer observation deck") {
		t.Fatalf("missing calibration or observation deck:\n%s", got)
	}
}

func TestBatchRejectsUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	err := runBatch([]string{"-spec", "D2L2C3T300", "-alg", "buc"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "buc"`) {
		t.Fatalf("err = %v, want an unknown-algorithm error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a refused session printed %q", out.String())
	}
}
