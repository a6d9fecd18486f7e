package regcube

import (
	"bytes"
	"testing"
)

// The facade surface at several shards: construct, ingest, flush,
// checkpoint through the versioned envelope, and restore — with results
// identical to the one-shard facade path.
func TestShardedFacadeRoundTrip(t *testing.T) {
	h, err := NewFanoutHierarchy("region", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Dimension{Name: "region", Hierarchy: h, MLevel: 2, OLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Schema: schema, TicksPerUnit: 4, Threshold: GlobalThreshold(0.5)}

	single, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	sharded, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	var wantAlerts, gotAlerts []Alert
	for tick := int64(0); tick < 8; tick++ {
		for m := int32(0); m < 16; m++ {
			v := float64(tick) * float64(m%5)
			ws, err := single.Ingest([]int32{m}, tick, v)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := sharded.Ingest([]int32{m}, tick, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, ur := range ws {
				wantAlerts = append(wantAlerts, ur.Alerts...)
			}
			for _, ur := range gs {
				gotAlerts = append(gotAlerts, ur.Alerts...)
			}
		}
	}
	wf, err := single.Flush()
	if err != nil {
		t.Fatal(err)
	}
	gf, err := sharded.Flush()
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts = append(wantAlerts, wf.Alerts...)
	gotAlerts = append(gotAlerts, gf.Alerts...)
	if len(wantAlerts) == 0 {
		t.Fatal("expected alerts from rising slopes")
	}
	if len(wantAlerts) != len(gotAlerts) {
		t.Fatalf("alerts: %d vs %d", len(gotAlerts), len(wantAlerts))
	}
	for i := range wantAlerts {
		if wantAlerts[i].Cell != gotAlerts[i].Cell || wantAlerts[i].ISB != gotAlerts[i].ISB {
			t.Fatalf("alert %d differs: %+v vs %+v", i, gotAlerts[i], wantAlerts[i])
		}
	}

	// One checkpoint layout through the facade: the sharded engine writes
	// the bytes the single engine does, and the file restores into a
	// sharded engine (any count) or a single engine.
	scp, err := sharded.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf, want bytes.Buffer
	if err := WriteCheckpoint(&buf, scp); err != nil {
		t.Fatal(err)
	}
	wcp, err := single.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(&want, wcp); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatal("sharded checkpoint file differs from the single engine's")
	}
	cp, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 5
	restored, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if restored.Unit() != sharded.Unit() {
		t.Fatalf("restored unit %d, want %d", restored.Unit(), sharded.Unit())
	}
	cfg.Shards = 1
	plain, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if plain.Unit() != single.Unit() {
		t.Fatalf("restored unit %d, want %d", plain.Unit(), single.Unit())
	}
}
