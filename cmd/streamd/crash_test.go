package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/persist"
	"repro/internal/wal"
	"repro/internal/wire"
)

// record is one durable WAL record.
type record struct {
	tick    int64
	members []int32
	value   float64
}

// TestCrashRecoveryBitwise is the crash-injection harness: a real streamd
// subprocess is kill -9'd mid-unit at randomized offsets while streaming
// text or binary input with a WAL. `regcube replay` over the crashed log,
// and a restart that replays it and then serves and ingests on, must each
// land bitwise on an uninterrupted engine run over the same durable
// records. Ingest is deterministic, so this holds at any shard count; the
// property is exercised at 1, 4, and 7 shards (7 also runs tilted).
func TestCrashRecoveryBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("randomized kill offsets from seed %d", seed)

	const (
		specStr   = "D2L2C4"
		unitTicks = 15
		threshold = 0.3
	)
	var replayedTotal, suffixTotal, reclosedTotal int64
	for _, tc := range []struct {
		shards int
		tilt   string
		binary bool
	}{{1, "", false}, {4, "", false}, {4, "", true}, {7, "log3x4", false}} {
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("shards%d", tc.shards)
			if tc.tilt != "" {
				name += "-tilt"
			}
			if tc.binary {
				name += "-binary"
			}
			t.Run(fmt.Sprintf("%s/kill%d", name, round), func(t *testing.T) {
				dir := t.TempDir()
				walDir := filepath.Join(dir, "wal")
				cpPath := filepath.Join(dir, "state.json")
				engine := []string{
					"-spec", specStr, "-unit", fmt.Sprint(unitTicks),
					"-threshold", fmt.Sprint(threshold),
					"-shards", fmt.Sprint(tc.shards),
				}
				if tc.tilt != "" {
					engine = append(engine, "-tilt", tc.tilt)
				}
				args := append(engine, "-wal-dir", walDir, "-wal-sync", "batch", "-checkpoint", cpPath)

				// Phase 1: stream paced records into streamd, then SIGKILL
				// it mid-unit at a randomized offset from its WAL's opening.
				stdin, feed := pipe(t)
				crashed := start(t, stdin, nil, "streamd", args...)
				stop := make(chan struct{})
				go feedRecords(feed, int64(tc.shards)*100+int64(round), tc.binary, stop)
				poll(t, "a WAL segment", func() bool {
					segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
					return len(segs) > 0
				})
				// Long enough to close units and cut checkpoints, random
				// enough to land anywhere within a unit.
				time.Sleep(time.Duration(30+rng.Intn(90)) * time.Millisecond)
				if err := crashed.cmd.Process.Signal(syscall.SIGKILL); err != nil {
					t.Fatal(err)
				}
				close(stop)
				if crashed.exit(t) == nil {
					t.Fatalf("streamd survived SIGKILL? output:\n%s", crashed.tail())
				}

				// Phase 2: `regcube replay` of the crashed, unrepaired log is
				// the uninterrupted run over its durable records.
				recs := readWAL(t, walDir)
				whatIf := filepath.Join(dir, "whatif.ckpt")
				out := runBin(t, nil, "regcube", append(append([]string{"replay"}, engine...),
					"-wal-dir", walDir, "-quiet", "-checkpoint", whatIf)...)
				if line := fmt.Sprintf("# replayed %d records (log end %d)", len(recs), len(recs)); !bytes.Contains(out, []byte(line)) {
					t.Fatalf("replay summary %q, want %q", out, line)
				}
				want := referenceCheckpoint(t, tc.shards, tc.tilt, unitTicks, threshold, recs)
				if got, err := os.ReadFile(whatIf); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("replay of the crashed log differs from the uninterrupted run over %d durable records (err %v)", len(recs), err)
				}

				// Phase 3: restart on the crashed state. streamd replays the
				// durable records past the checkpoint's watermark, and one
				// more record, a unit past the last durable tick, closes the
				// rebuilt unit, so the recovered state serves queries.
				mark := watermark(t, cpPath)
				stdin, feed = pipe(t)
				restart := start(t, stdin, nil, "streamd", append(args, "-listen", "127.0.0.1:0")...)
				base := "http://" + restart.await(t, listenRE)[1]
				var last int64
				for _, r := range recs {
					last = max(last, r.tick)
				}
				sink := &recordSink{w: feed, binary: tc.binary}
				if err := sink.write(record{(last/unitTicks + 1) * unitTicks, []int32{0, 0}, 1}); err != nil {
					t.Fatalf("feeding the restart: %v\n%s", err, restart.tail())
				}
				var summary, exceptions map[string]json.RawMessage
				getJSON(t, base+"/v1/summary", &summary)
				getJSON(t, base+"/v1/exceptions?k=3", &exceptions)
				if !bytes.HasPrefix(summary["cuboids"], []byte("[")) || !bytes.HasPrefix(exceptions["cells"], []byte("[")) {
					t.Fatalf("recovered state serves summary %s and exceptions %s", summary, exceptions)
				}
				feed.Close()
				if err := restart.exit(t); err != nil {
					t.Fatalf("restart failed: %v\n%s", err, restart.tail())
				}
				suffix := int64(len(recs)) - mark
				replayed := fmt.Sprintf("# wal: replayed %d records (watermark %d -> %d)\n", suffix, mark, len(recs))
				if out, want := restart.out.String(), suffix > 0; strings.Contains(out, replayed) != want || strings.Contains(out, "# wal: replayed") != want {
					t.Fatalf("restart over %d durable records past watermark %d: want %q iff any:\n%s", suffix, mark, replayed, restart.tail())
				}
				suffixTotal += suffix
				// Units the replay closed report before its summary line.
				if replay, _, ok := strings.Cut(restart.out.String(), "# wal: replayed"); ok && strings.Contains(replay, "[unit ") {
					reclosedTotal++
				}

				got, err := os.ReadFile(cpPath)
				if err != nil {
					t.Fatalf("recovered checkpoint: %v", err)
				}
				recs = readWAL(t, walDir)
				replayedTotal += int64(len(recs))
				if want := referenceCheckpoint(t, tc.shards, tc.tilt, unitTicks, threshold, recs); !bytes.Equal(got, want) {
					t.Fatalf("recovered checkpoint differs from uninterrupted run over %d durable records\nstream output:\n%s\nrestart output:\n%s",
						len(recs), crashed.tail(), restart.tail())
				}
			})
		}
	}
	// The harness is only meaningful if some run actually had durable
	// records to recover, some restart a WAL suffix to replay, and some
	// replay a unit boundary to cross; with batch fsync, ≥30ms of
	// streaming and checkpoints cut only once the log outweighs them, none
	// rounds to zero across eight runs.
	t.Logf("%d restarts re-closed a unit during replay", reclosedTotal)
	if replayedTotal == 0 || suffixTotal == 0 || reclosedTotal == 0 {
		t.Fatalf("%d durable WAL records, %d replayed past a watermark, %d restarts re-closed a unit: the harness tested nothing",
			replayedTotal, suffixTotal, reclosedTotal)
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

			stdin, feed := pipe(t)
			p := start(t, stdin, nil, "streamd", args...)
			stop := make(chan struct{})
			defer close(stop)
			go feedRecords(feed, int64(shards), false, stop)
			time.Sleep(80 * time.Millisecond)
			if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := p.exit(t); err != nil {
				t.Fatalf("SIGTERM must exit 0, got %v\n%s", err, p.tail())
			}
			if !strings.Contains(p.out.String(), "# signal: flushing final unit") {
				t.Fatalf("missing signal banner:\n%s", p.tail())
			}

			// Zero loss: the checkpoint watermark equals the durable log
			// length exactly.
			durable := int64(len(readWAL(t, walDir)))
			if durable == 0 {
				t.Fatal("no durable records; the harness tested nothing")
			}
			if mark := watermark(t, cpPath); mark != durable {
				t.Fatalf("checkpoint watermark %d != %d durable WAL records — graceful shutdown lost ingested records", mark, durable)
			}

			// A restart on the same state must find nothing to replay.
			out := runBin(t, nil, "streamd", args...)
			if bytes.Contains(out, []byte("# wal: replayed")) {
				t.Fatalf("restart replayed a WAL suffix after a graceful shutdown:\n%s", out)
			}
		})
	}
}

// feedRecords streams three records a tick into w, text or binary, every
// 200µs until stop closes or the pipe dies with the process. The cells
// are distinct within a tick: the engine takes one reading per cell per
// tick, and a rejected record is already durable in the write-ahead log,
// so replay would (correctly) refuse it — the feed holds only records a
// live engine accepts, like any valid producer.
func feedRecords(w io.WriteCloser, seed int64, binary bool, stop <-chan struct{}) {
	defer w.Close()
	rng := rand.New(rand.NewSource(seed))
	sink := &recordSink{w: w, binary: binary}
	for tick := int64(0); ; tick++ {
		var recs []record
		for _, cell := range rng.Perm(256)[:3] {
			recs = append(recs, record{tick, []int32{int32(cell % 16), int32(cell / 16)}, rng.NormFloat64() * 5})
		}
		if sink.write(recs...) != nil {
			return // the pipe died with the process
		}
		select {
		case <-stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// recordSink writes records as text lines or, binary, as a wire stream of
// one frame per write.
type recordSink struct {
	w      io.Writer
	binary bool
	enc    *wire.Writer
}

func (s *recordSink) write(recs ...record) (err error) {
	if s.binary && s.enc == nil {
		if s.enc, err = wire.NewWriter(s.w, 2); err != nil {
			return err
		}
	}
	for _, r := range recs {
		if s.binary {
			err = s.enc.Append(r.tick, r.members, r.value)
		} else {
			_, err = fmt.Fprintf(s.w, "%d,%d,%d,%g\n", r.tick, r.members[0], r.members[1], r.value)
		}
		if err != nil {
			return err
		}
	}
	if s.binary {
		return s.enc.Flush()
	}
	return nil
}

// watermark is the WAL watermark of the checkpoint at path, 0 if there is
// none.
func watermark(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := persist.ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	return cp.WALSeq
}

// readWAL returns every durable record in the log directory.
func readWAL(t *testing.T, dir string) []record {
	t.Helper()
	var recs []record
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	_, err := wal.ReplayBatches(dir, 0, func(_ int64, b *wire.Batch) error {
		for i, tick := range b.Ticks {
			recs = append(recs, record{tick, []int32{b.Cols[0][i], b.Cols[1][i]}, b.Values[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	return recs
}

// referenceCheckpoint runs a fresh engine over recs one record at a time,
// then as streamd would (final flush, watermark stamp), and returns the
// checkpoint document it writes.
func referenceCheckpoint(t *testing.T, shards int, tiltStr string, unitTicks int, threshold float64, recs []record) []byte {
	t.Helper()
	a, err := node.EngineConfig{Spec: "D2L2C4", TicksPerUnit: unitTicks, Threshold: threshold, Tilt: tiltStr, Shards: shards}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, r := range recs {
		if _, err := a.Ingest(r.members, r.tick, r.value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWALSeq(int64(len(recs))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
