package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// syncWriter makes a bytes.Buffer safe for the runtime's two writers (the
// report path and the log handler's goroutine).
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// risingFeed returns text records over `ticks` ticks whose values rise
// steeply with the tick, so every cell's slope breaches any small
// threshold once a unit closes.
func risingFeed(ticks int) string {
	var sb strings.Builder
	for tick := 0; tick < ticks; tick++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%g\n", tick, a, b, float64(tick)*float64(a+2*b+1))
			}
		}
	}
	return sb.String()
}

// TestRunShutdownDrainsAlerts drives the runtime end to end in-process:
// a rising feed with the alert lifecycle and a webhook enabled, plain EOF
// shutdown. The ordered shutdown's last step drains the alert pipeline,
// so by the time Run returns the webhook must have received every event —
// including those from the final flush — and the ALERTEVENT log lines
// must all precede the summary line.
func TestRunShutdownDrainsAlerts(t *testing.T) {
	var mu sync.Mutex
	var posted []map[string]any
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var ev map[string]any
		if err := json.Unmarshal(body, &ev); err != nil {
			t.Errorf("webhook got bad JSON: %v", err)
		}
		mu.Lock()
		posted = append(posted, ev)
		mu.Unlock()
	}))
	defer hook.Close()

	out := &syncWriter{}
	err := Run(context.Background(), Config{
		Engine: EngineConfig{
			Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 4,
		},
		AlertWarn:    0.5,
		AlertCrit:    4,
		AlertHold:    1,
		AlertWebhook: hook.URL,
	}, strings.NewReader(risingFeed(10)), out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	text := out.String()
	if !strings.Contains(text, "ALERTEVENT ") {
		t.Fatalf("no ALERTEVENT lines in output:\n%s", text)
	}
	sumIdx := strings.Index(text, "# 160 records")
	if sumIdx < 0 {
		t.Fatalf("missing summary line:\n%s", text)
	}
	if last := strings.LastIndex(text, "ALERTEVENT "); last > sumIdx {
		t.Fatalf("ALERTEVENT after the summary line — alert drain did not precede it:\n%s", text)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(posted) == 0 {
		t.Fatal("webhook received no events before Run returned")
	}
	if got := strings.Count(text, "ALERTEVENT "); len(posted) != got {
		t.Fatalf("webhook received %d events, log sink %d — handlers must see the same stream", len(posted), got)
	}
	var crits int
	for _, ev := range posted {
		if ev["to"] == "crit" {
			crits++
		}
	}
	if crits == 0 {
		t.Fatalf("rising feed produced no crit escalation; events: %v", posted)
	}
}

// TestRunAlertsForcePublication checks the runtime turns snapshot
// publication on for the alert lifecycle even without -listen: with
// alerting off and no listener, the same feed must produce no events.
func TestRunAlertsForcePublication(t *testing.T) {
	out := &syncWriter{}
	err := Run(context.Background(), Config{
		Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 1},
	}, strings.NewReader(risingFeed(10)), out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ALERTEVENT ") {
		t.Fatalf("alerting disabled but events fired:\n%s", out.String())
	}
}

// TestRunRecordErrorSameAtEveryShardCount: a record whose tick its cell
// already consumed, in the middle of a unit and of a stream of many
// batches, stops the node with the same report and the same error — the
// same record named — at one shard and at two, for text and binary input.
// The error comes back from the batch that carried the record, not from
// the next unit boundary.
func TestRunRecordErrorSameAtEveryShardCount(t *testing.T) {
	const ticksPerUnit, ticks, dupTick = 64, 192, 70
	type record struct {
		tick    int64
		members []int32
		value   float64
	}
	var recs []record
	for tick := int64(0); tick < ticks; tick++ {
		for c := int32(0); c < 16; c++ {
			r := record{tick, []int32{c % 4, c / 4}, float64(tick) * float64(c+1)}
			recs = append(recs, r)
			if tick == dupTick && c == 5 {
				recs = append(recs, r)
			}
		}
	}
	var text strings.Builder
	var binary bytes.Buffer
	w, err := wire.NewWriter(&binary, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchRecords = 100
	for _, r := range recs {
		fmt.Fprintf(&text, "%d,%d,%d,%g\n", r.tick, r.members[0], r.members[1], r.value)
		if err := w.Append(r.tick, r.members, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for format, feed := range map[string]string{"text": text.String(), "binary": binary.String()} {
		var wantOut, wantErr string
		for _, shards := range []int{1, 2} {
			out := &syncWriter{}
			err := Run(context.Background(), Config{
				Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: ticksPerUnit, Threshold: 0.5, Shards: shards},
			}, strings.NewReader(feed), out)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tick %d already consumed", dupTick)) {
				t.Fatalf("%s shards=%d: %v, want the duplicate tick refused", format, shards, err)
			}
			if shards == 1 {
				wantOut, wantErr = out.String(), err.Error()
				if !strings.Contains(wantOut, "[unit 0]") || strings.Contains(wantOut, "[unit 1]") {
					t.Fatalf("%s: want unit 0 reported and unit 1 not:\n%s", format, wantOut)
				}
				continue
			}
			if err.Error() != wantErr {
				t.Fatalf("%s: shards=2 error %q, shards=1 %q", format, err, wantErr)
			}
			if out.String() != wantOut {
				t.Fatalf("%s: shards=2 printed\n%s\nshards=1\n%s", format, out.String(), wantOut)
			}
		}
	}
}

// TestRunShutdownReleasesParkedFollower: a coordinator's parked
// GET /v1/snapshot?wait= must not hold step 3 of the ordered shutdown for
// its park — Shutdown fires the serving layer's drain signal, the request
// answers 304 at once, and the node is down well inside the park.
func TestRunShutdownReleasesParkedFollower(t *testing.T) {
	out := &syncWriter{}
	in, feed := io.Pipe()
	ran := make(chan error, 1)
	go func() {
		ran <- Run(context.Background(), Config{
			Engine: EngineConfig{Spec: "D2L2C4", TicksPerUnit: 4, Threshold: 0.5, Shards: 1},
			Listen: "127.0.0.1:0",
		}, in, out)
	}()
	if _, err := io.WriteString(feed, risingFeed(10)); err != nil { // closes units 0 and 1
		t.Fatal(err)
	}
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, rest, ok := strings.Cut(out.String(), "# serving http on "); ok && strings.Contains(out.String(), "[unit 1]") {
			addr, _, _ := strings.Cut(rest, "\n")
			base = "http://" + addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never served unit 1:\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
	parked := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/snapshot?after=1&wait=450")
		if err != nil {
			t.Error(err)
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	select {
	case status := <-parked:
		t.Fatalf("request answered %d with nothing newer published", status)
	case <-time.After(50 * time.Millisecond):
	}
	t0 := time.Now()
	feed.Close()
	if err := <-ran; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if took := time.Since(t0); took > 200*time.Millisecond {
		t.Fatalf("shutdown with a parked follower took %v", took)
	}
	if status := <-parked; status != http.StatusNotModified {
		t.Fatalf("parked request answered %d, want 304", status)
	}
}

// TestSIGTERMZeroWALLoss is the graceful-shutdown durability harness: a
// real streamd subprocess streams paced records into a WAL, receives
// SIGTERM mid-stream, and must exit 0 with its checkpoint watermark equal
// to the durable log length — every logged record ingested, nothing to
// replay. A restart on the same state must confirm that by replaying no
// WAL suffix.
func TestSIGTERMZeroWALLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shutdown harness")
	}
	bin := filepath.Join(t.TempDir(), "streamd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/streamd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building streamd: %v", err)
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			cpPath := filepath.Join(dir, "state.json")
			args := []string{
				"-spec", "D2L2C4", "-unit", "15", "-threshold", "0.3",
				"-shards", fmt.Sprint(shards),
				"-wal-dir", walDir, "-wal-sync", "batch",
				"-checkpoint", cpPath,
			}

			cmd := exec.Command(bin, args...)
			stdin, err := cmd.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			go func() {
				defer stdin.Close()
				w := rand.New(rand.NewSource(int64(shards)))
				for tick := 0; ; tick++ {
					// Distinct cells within a tick: the engine takes one
					// reading per cell per tick, and the harness must stream
					// only records a live engine accepts.
					var drawn [3][2]int
					for i := 0; i < 3; i++ {
					draw:
						a, b := w.Intn(16), w.Intn(16)
						for j := 0; j < i; j++ {
							if drawn[j] == [2]int{a, b} {
								goto draw
							}
						}
						drawn[i] = [2]int{a, b}
						row := fmt.Sprintf("%d,%d,%d,%g\n", tick, a, b, w.NormFloat64()*5)
						if _, err := io.WriteString(stdin, row); err != nil {
							return
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()
			time.Sleep(80 * time.Millisecond)
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			waitErr := cmd.Wait()
			close(stop)
			if waitErr != nil {
				t.Fatalf("SIGTERM must exit 0, got %v\n%s", waitErr, out.String())
			}
			if !strings.Contains(out.String(), "# signal: flushing final unit") {
				t.Fatalf("missing signal banner:\n%s", out.String())
			}

			// Zero loss: the checkpoint watermark equals the durable log
			// length exactly.
			durable, err := wal.Replay(walDir, 0, func(int64, wal.Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if durable == 0 {
				t.Fatal("no durable records; the harness tested nothing")
			}
			a, err := EngineConfig{Spec: "D2L2C4", TicksPerUnit: 15, Threshold: 0.3, Shards: shards}.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			f, err := os.Open(cpPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.LoadCheckpoint(f); err != nil {
				f.Close()
				t.Fatal(err)
			}
			f.Close()
			if mark := a.WALSeq(); mark != durable {
				t.Fatalf("checkpoint watermark %d != %d durable WAL records — graceful shutdown lost ingested records", mark, durable)
			}

			// A restart on the same state must find nothing to replay.
			restart := exec.Command(bin, args...)
			restart.Stdin = nil
			var rout bytes.Buffer
			restart.Stdout = &rout
			restart.Stderr = &rout
			if err := restart.Run(); err != nil {
				t.Fatalf("restart failed: %v\n%s", err, rout.String())
			}
			if strings.Contains(rout.String(), "# wal: replayed") {
				t.Fatalf("restart replayed a WAL suffix after a graceful shutdown:\n%s", rout.String())
			}
		})
	}
}
