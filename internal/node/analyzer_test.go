package node

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestEngineConfigAlgIsMOOnly pins the one value EngineConfig.Alg has left:
// "" and "mo" build the same engine — their checkpoints after the same
// input are equal byte for byte — and any other name is refused.
func TestEngineConfigAlgIsMOOnly(t *testing.T) {
	var b wire.Batch
	b.Reset(2)
	for tick := int64(0); tick < 10; tick++ {
		for c := int32(0); c < 16; c++ {
			b.Append(tick, []int32{c, 15 - c}, float64(c)*float64(tick)*0.3+float64(c%3))
		}
	}
	docs := make(map[string][]byte)
	for _, alg := range []string{"", "mo"} {
		a, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Alg: alg, Shards: 2}.Build()
		if err != nil {
			t.Fatalf("Alg %q: %v", alg, err)
		}
		if _, err := a.IngestBatch(&b); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := a.WriteCheckpoint(&doc); err != nil {
			t.Fatal(err)
		}
		a.Close()
		docs[alg] = doc.Bytes()
	}
	if !bytes.Equal(docs[""], docs["mo"]) {
		t.Fatal(`Alg "" and "mo" checkpoint different bytes`)
	}
	_, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Alg: "popular-path", Shards: 1}.Build()
	if err == nil || !strings.Contains(err.Error(), "m/o-cubing only") {
		t.Fatalf(`Alg "popular-path": err = %v, want a refusal saying the node runs m/o-cubing only`, err)
	}
}
