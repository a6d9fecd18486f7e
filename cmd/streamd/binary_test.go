package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// binaryStream encodes text-format record lines ("tick,members...,value")
// into the framed columnar wire format, cutting a frame every batchRecords
// records.
func binaryStream(t *testing.T, dims, batchRecords int, lines ...string) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, dims)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = batchRecords
	members := make([]int32, dims)
	for _, l := range lines {
		fields := strings.Split(l, ",")
		if len(fields) != dims+2 {
			t.Fatalf("record %q has %d fields, want %d", l, len(fields), dims+2)
		}
		var tick int64
		var value float64
		if _, err := fmt.Sscan(fields[0], &tick); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dims; d++ {
			if _, err := fmt.Sscan(fields[1+d], &members[d]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fmt.Sscan(fields[dims+1], &value); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(tick, members, value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// streamd auto-detects the binary framing on the same stdin and produces
// the same reports as the text path.
func TestRunBinaryEndToEnd(t *testing.T) {
	lines := []string{"0,0,1.0", "1,0,2.0", "2,0,3.0", "3,0,4.0", "4,0,5.0"}
	var out bytes.Buffer
	if err := runOpts("D1L2C2", 4, 0.5, "", 1, binaryStream(t, 1, 2, lines...), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "[unit 0]") || !strings.Contains(got, "ALERT") {
		t.Fatalf("missing unit report or alert: %q", got)
	}
	if !strings.Contains(got, "# 5 records, 2 units") {
		t.Fatalf("missing summary: %q", got)
	}
}

// The same records through text and binary ingest leave bitwise-identical
// checkpoints at every shard count — the encoding changes the envelope,
// never the state.
func TestRunBinaryMatchesTextBitwise(t *testing.T) {
	var lines []string
	for tick := 0; tick < 11; tick++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				lines = append(lines, fmt.Sprintf("%d,%d,%d,%g", tick, a, b, float64(tick)*0.25*float64(a+2*b+1)-3))
			}
		}
	}
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 7, 4096} {
			dir := t.TempDir()
			cpText := filepath.Join(dir, "text.cp")
			cpBin := filepath.Join(dir, "bin.cp")
			var outText, outBin bytes.Buffer
			if err := runOpts("D2L2C2", 4, 0.5, cpText, shards, records(lines...), &outText); err != nil {
				t.Fatal(err)
			}
			if err := runOpts("D2L2C2", 4, 0.5, cpBin, shards, binaryStream(t, 2, batch, lines...), &outBin); err != nil {
				t.Fatal(err)
			}
			textCP, err := os.ReadFile(cpText)
			if err != nil {
				t.Fatal(err)
			}
			binCP, err := os.ReadFile(cpBin)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(textCP, binCP) {
				t.Fatalf("shards=%d batch=%d: binary-fed checkpoint differs from text-fed", shards, batch)
			}
			// Reports agree as line sets (alert order within a unit is not
			// canonical in single-engine mode).
			norm := func(s string) string {
				ls := strings.Split(strings.TrimSpace(s), "\n")
				sort.Strings(ls)
				return strings.Join(ls, "\n")
			}
			if norm(outText.String()) != norm(outBin.String()) {
				t.Fatalf("shards=%d batch=%d: binary reports differ:\n%s\nvs text:\n%s",
					shards, batch, outBin.String(), outText.String())
			}
		}
	}
}

func TestRunBinaryErrors(t *testing.T) {
	lines := []string{"0,0,1.0", "1,0,2.0"}
	var out bytes.Buffer

	// Dimension mismatch between the stream header and -spec.
	if err := runOpts("D2L2C2", 4, 1, "", 1, binaryStream(t, 1, 4, lines...), &out); err == nil {
		t.Fatal("expected dims mismatch error")
	} else if !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("dims mismatch error = %v", err)
	}

	// A bit flip inside a frame is a decode error, not a hang or a panic.
	full, err := io.ReadAll(binaryStream(t, 1, 4, lines...))
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0x20
	if err := runOpts("D1L2C2", 4, 1, "", 1, bytes.NewReader(full), &out); err == nil {
		t.Fatal("expected corrupt frame error")
	}

	// A stream that dies mid-frame surfaces a torn-stream error.
	if err := runOpts("D1L2C2", 4, 1, "", 1, bytes.NewReader(full[:len(full)-3]), &out); err == nil {
		t.Fatal("expected torn frame error")
	}
}

// The ingest counters on /metrics move as binary frames decode, the
// closed units serve, and the signal (run's context) ends a binary-fed
// run cleanly.
func TestRunBinaryIngestMetrics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	url, pw, done := startServing(t, ctx, 2, &out)
	defer pw.Close()

	// Feed a binary stream through the pipe: header, then records.
	w, err := wire.NewWriter(pw, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 4
	for tick := 0; tick < 9; tick++ {
		for m := int32(0); m < 4; m++ {
			if err := w.Append(int64(tick), []int32{m}, float64(tick+1)*float64(m+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// The last frame's stats bump happens after the pipe write unblocks,
	// so poll until the counters land.
	want := []string{
		`regcube_ingest_records_total{format="binary",source="stdin"} 36`,
		`regcube_ingest_frames_total{format="binary",source="stdin"} 9`, // 36 records, 4 per batch
		`regcube_ingest_decode_errors_total{format="binary",source="stdin"} 0`,
	}
	var body string
	for i := 0; i < 200; i++ {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		ok := true
		for _, w := range want {
			if !strings.Contains(body, w) {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if i == 199 {
			t.Fatalf("ingest counters never reached %q:\n%s", want, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Ingest trails the decode counters by the batches in flight.
	for path, field := range map[string]string{"/v1/summary": "cuboids", "/v1/exceptions?k=3": "cells"} {
		var body map[string]json.RawMessage
		if getJSON(t, url+path, &body); !bytes.HasPrefix(body[field], []byte("[")) {
			t.Fatalf("GET %s: %s", path, body)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The text path reports through the same counters under its own label.
func TestRunTextIngestMetrics(t *testing.T) {
	var out syncBuffer
	url, pw, done := startServing(t, context.Background(), 1, &out)

	for tick := 0; tick < 5; tick++ {
		fmt.Fprintf(pw, "%d,0,%g\n", tick, float64(tick+1))
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `regcube_ingest_records_total{format="text",source="stdin"} 5`) &&
			strings.Contains(string(raw), `regcube_ingest_decode_errors_total{format="text",source="stdin"} 0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("text ingest counters never moved:\n%s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
