#!/usr/bin/env bash
# End-to-end smoke test for the serving pipeline: pipe `datagen -stream`
# into `streamd -listen`, query every HTTP endpoint mid-stream, then send
# SIGINT and assert the graceful flush — the full binary path the unit
# tests skip. A second leg kill -9s a WAL-backed streamd mid-stream,
# restarts it, queries the recovered state, and runs a `regcube replay`
# what-if over the captured log. The binary legs re-run the pipe with
# `-format=binary` framed batches: checkpoints must be bitwise-equal to
# the text-fed ones, mid-stream queries must serve, and a kill -9'd
# binary-fed WAL must replay deterministically. The layout legs `cmp` the
# checkpoints `-shards 1` and `-shards 4` write from one input, and resume
# a checked-in legacy per-shard file at both counts. The cluster leg runs the
# 4-process topology — four streamd ingest nodes behind regcube-router's
# scatter tier and scatter-gather coordinator — queries the coordinator
# mid-stream, and asserts the merged per-node checkpoints are
# bitwise-equal to a single engine over the identical stream. Run from
# anywhere; needs go and curl.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
workdir=$(mktemp -d)
spid=""
dpid=""
rpid=""
akpid=""
npids=()
cleanup() {
  [ -n "$spid" ] && kill "$spid" 2>/dev/null || true
  [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
  [ -n "$rpid" ] && kill "$rpid" 2>/dev/null || true
  [ -n "$akpid" ] && kill "$akpid" 2>/dev/null || true
  for p in "${npids[@]:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir" ./cmd/datagen ./cmd/streamd ./cmd/queryprobe ./cmd/regcube ./cmd/regcube-router ./cmd/alertsink

fifo="$workdir/stream.fifo"
mkfifo "$fifo"

echo "== start streamd -listen $ADDR (4 shards, tilted history)"
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -tilt calendar \
  -listen "$ADDR" -checkpoint "$workdir/state.json" \
  < "$fifo" > "$workdir/out.log" 2>&1 &
spid=$!

echo "== start datagen -stream (paced, with query load)"
# Enough ticks that the stream outlives the whole query phase even when a
# loaded CI box makes the retry loops below crawl — SIGINT ends the run
# long before the stream does, so the tick budget costs no wall time.
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 60000 -pace 5ms \
  -query "http://$ADDR" -qinterval 20ms \
  > "$fifo" 2> "$workdir/datagen.log" &
dpid=$!

# fetch retries a transiently failing endpoint (server mid-boundary, load
# spikes on a busy CI box) instead of failing the whole smoke on one shot;
# each attempt has its own curl timeout and the loop is bounded at ~10s.
fetch() {
  local path=$1 body i
  for i in $(seq 1 20); do
    if body=$(curl -fsS --max-time 5 "http://$ADDR$path" 2>/dev/null); then
      printf '%s' "$body"
      return 0
    fi
    sleep 0.5
  done
  echo "fetch $path: no success after 20 attempts" >&2
  return 1
}

echo "== wait for the first completed unit"
ready=""
for _ in $(seq 1 150); do
  if h=$(fetch /healthz 2>/dev/null) && grep -q '"unitsDone":[1-9]' <<<"$h"; then
    ready=yes
    break
  fi
  sleep 0.2
done
if [ -z "$ready" ]; then
  echo "FAIL: server never served a completed unit" >&2
  cat "$workdir/out.log" >&2
  exit 1
fi
echo "   healthz: $h"

assert_json() { # path, required substring
  local body
  if ! body=$(fetch "$1"); then
    echo "FAIL: GET $1 never succeeded" >&2
    exit 1
  fi
  if [ -z "$body" ] || ! grep -q "$2" <<<"$body"; then
    echo "FAIL: GET $1 returned unexpected body: $body" >&2
    exit 1
  fi
  echo "   OK GET $1 (${#body} bytes)"
}

echo "== query every endpoint mid-stream"
assert_json '/v1/exceptions?k=5'              '"cells":\['
assert_json '/v1/exceptions?k=3&order=key'    '"cells":\['
assert_json '/v1/summary'                     '"cuboids":\['
assert_json '/v1/alerts'                      '"alerts":\['
assert_json '/v1/supporters?members=0,0'      '"supporters":'
assert_json '/v1/slice?dim=0&level=1&member=0' '"cells":'
assert_json '/v1/trend?members=0,0&k=1'       '"points":\['
# Tilted endpoints: the per-level frame listing, and an hour-granularity
# trend once 4 quarters have closed (fetch retries until they have).
assert_json '/v1/frame?members=0,0'           '"tilted":true'
assert_json '/v1/trend?members=0,0&k=1&level=1' '"level":"hour"'
# Errors are JSON too — including the uniform lower-bound validation.
body=$(curl -sS --max-time 5 "http://$ADDR/v1/slice?dim=99&member=0")
grep -q '"error"' <<<"$body" || { echo "FAIL: bad request not JSON: $body" >&2; exit 1; }
body=$(curl -sS --max-time 5 "http://$ADDR/v1/exceptions?k=0")
grep -q 'below minimum' <<<"$body" || { echo "FAIL: k=0 not rejected: $body" >&2; exit 1; }
echo "   OK bad requests rejected as JSON errors"
fetch /metrics | grep -q 'regcube_http_requests_total' \
  || { echo "FAIL: /metrics missing counters" >&2; exit 1; }
m=$(fetch /metrics)
grep -q 'regcube_checkpoint_writes_total [1-9]' <<<"$m" && grep -q 'regcube_gc_cycles_total [0-9]' <<<"$m" \
  || { echo "FAIL: /metrics missing the checkpoint or GC counters" >&2; exit 1; }
grep -q 'regcube_cells_active [1-9]' <<<"$m" \
  || { echo "FAIL: /metrics missing the active cell count" >&2; exit 1; }
echo "   OK GET /metrics"

echo "== POST /v1/query: one batch, four kinds plus a bad sub-request"
batch='{"queries":[{"kind":"summary"},{"kind":"exceptions","k":3},{"kind":"alerts"},{"kind":"frame","members":[0,0]},{"kind":"slice","dim":99,"member":0}]}'
body=""
for _ in $(seq 1 10); do
  if body=$(curl -fsS --max-time 5 -X POST -H 'Content-Type: application/json' \
      -d "$batch" "http://$ADDR/v1/query" 2>/dev/null) && [ -n "$body" ]; then
    break
  fi
  sleep 0.5
done
grep -q '"results":\[' <<<"$body" || { echo "FAIL: batch returned no results: $body" >&2; exit 1; }
# `|| true` keeps a zero-match grep from tripping set -e before the
# FAIL diagnostic below can report.
oks=$(grep -o '"ok":true' <<<"$body" | wc -l || true)
[ "$oks" -eq 4 ] || { echo "FAIL: batch had $oks ok results, want 4: $body" >&2; exit 1; }
grep -q '"status":400' <<<"$body" || { echo "FAIL: bad sub-request not 400 in batch: $body" >&2; exit 1; }
echo "   OK POST /v1/query ($oks ok + 1 typed error, ${#body} bytes)"
# Method discipline: GET on the batch endpoint (and POST on a read
# endpoint) must 405 with an Allow header.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/query")
[ "$code" = "405" ] || { echo "FAIL: GET /v1/query = $code, want 405" >&2; exit 1; }
allow=$(curl -s -o /dev/null -D - "http://$ADDR/v1/query" | grep -i '^allow:' || true)
grep -q 'POST' <<<"$allow" || { echo "FAIL: GET /v1/query Allow header: $allow" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/summary")
[ "$code" = "405" ] || { echo "FAIL: POST /v1/summary = $code, want 405" >&2; exit 1; }
echo "   OK method discipline (405 + Allow)"

echo "== client SDK smoke probe (cmd/queryprobe)"
"$workdir/queryprobe" -addr "http://$ADDR" -cell 0,0 -timeout 60s \
  || { echo "FAIL: queryprobe failed" >&2; exit 1; }

echo "== SIGINT mid-stream: graceful flush + checkpoint + shutdown"
kill -INT "$spid"
rc=0
wait "$spid" || rc=$?
spid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: streamd exited $rc after SIGINT" >&2
  cat "$workdir/out.log" >&2
  exit 1
fi
grep -q '# signal: flushing final unit' "$workdir/out.log" \
  || { echo "FAIL: no signal banner in output" >&2; tail "$workdir/out.log" >&2; exit 1; }
grep -qE '^# [0-9]+ records, [0-9]+ units$' "$workdir/out.log" \
  || { echo "FAIL: no final summary in output" >&2; tail "$workdir/out.log" >&2; exit 1; }
[ -s "$workdir/state.json" ] || { echo "FAIL: checkpoint not written" >&2; exit 1; }
kill "$dpid" 2>/dev/null || true
dpid=""

echo "== resume the calendar-chain checkpoint under the same chain, another chain, then the default chain"
# Each resume saves its own checkpoint over the file it loaded, so the
# later legs also resume what the earlier one reseeded.
# (The file is the binary checkpoint document whatever it is called: the
# magic "RCCP", then the version byte.)
[ "$(head -c 5 "$workdir/state.json" | od -An -c | tr -d ' \n')" = 'RCCP005' ] \
  || { echo "FAIL: checkpoint is not a version-5 checkpoint document" >&2; head -c 16 "$workdir/state.json" | od -c >&2; exit 1; }
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 2 \
  -tilt calendar \
  -checkpoint "$workdir/state.json" < /dev/null > "$workdir/resume.log" 2>&1
grep -q '# resumed at unit' "$workdir/resume.log" \
  || { echo "FAIL: no same-chain resume banner" >&2; cat "$workdir/resume.log" >&2; exit 1; }
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 2 \
  -tilt log4x8 \
  -checkpoint "$workdir/state.json" < /dev/null > "$workdir/resume-log.log" 2>&1
grep -q '# resumed at unit' "$workdir/resume-log.log" \
  || { echo "FAIL: no resume banner under another chain" >&2; cat "$workdir/resume-log.log" >&2; exit 1; }
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 1 \
  -checkpoint "$workdir/state.json" < /dev/null > "$workdir/resume-default.log" 2>&1
grep -q '# resumed at unit' "$workdir/resume-default.log" \
  || { echo "FAIL: no default-chain resume banner" >&2; cat "$workdir/resume-default.log" >&2; exit 1; }

echo "== WAL crash leg: kill -9 mid-stream, restart, replay, query"
ADDR=127.0.0.1:18081
waldir="$workdir/wal"
walcp="$workdir/wal-state.json"
fifo2="$workdir/wal.fifo"
mkfifo "$fifo2"
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 60000 -pace 1ms \
  > "$fifo2" 2>/dev/null &
dpid=$!
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -wal-dir "$waldir" -wal-sync batch -checkpoint "$walcp" \
  < "$fifo2" > "$workdir/wal-crash.log" 2>&1 &
spid=$!
sleep 2.5
kill -9 "$spid"
wait "$spid" 2>/dev/null || true
spid=""
kill "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""
ls "$waldir"/wal-*.seg >/dev/null 2>&1 \
  || { echo "FAIL: no WAL segments written before the crash" >&2; exit 1; }

echo "== restart on the crashed WAL, keep streaming, query recovered state"
fifo3="$workdir/wal2.fifo"
mkfifo "$fifo3"
# The fresh generator restarts ticks at 0, which the recovered engine is
# long past; shift them far beyond anything the crashed run can have
# reached (<= 2.5s / 1ms pace ≈ 2500 ticks, with generous slop). The
# engine zero-fills the empty units in between, as for any quiet stream.
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 60000 -pace 5ms 2>/dev/null \
  | awk -F, -v OFS=, '{ $1 += 50000; print }' > "$fifo3" &
dpid=$!
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -wal-dir "$waldir" -wal-sync batch -checkpoint "$walcp" \
  -listen "$ADDR" \
  < "$fifo3" > "$workdir/wal-restart.log" 2>&1 &
spid=$!
# The node can answer /healthz before its log shows the replay line, so
# both are polled, within one 30 s budget.
ready="" replayed=""
for _ in $(seq 1 150); do
  if [ -z "$ready" ] && h=$(fetch /healthz 2>/dev/null) && grep -q '"unitsDone":[1-9]' <<<"$h"; then
    ready=yes
  fi
  if [ -z "$replayed" ] && grep -q '# wal: replayed' "$workdir/wal-restart.log"; then
    replayed=yes
  fi
  [ -n "$ready" ] && [ -n "$replayed" ] && break
  sleep 0.2
done
if [ -z "$ready" ]; then
  echo "FAIL: restarted server never served a completed unit" >&2
  cat "$workdir/wal-restart.log" >&2
  exit 1
fi
if [ -z "$replayed" ]; then
  echo "FAIL: restart did not replay the WAL" >&2
  cat "$workdir/wal-restart.log" >&2
  exit 1
fi
echo "   $(grep '# wal: replayed' "$workdir/wal-restart.log")"
assert_json '/v1/summary'        '"cuboids":\['
assert_json '/v1/exceptions?k=3' '"cells":\['
kill -INT "$spid"
wait "$spid" || { echo "FAIL: restarted streamd exited non-zero" >&2; cat "$workdir/wal-restart.log" >&2; exit 1; }
spid=""
kill "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

echo "== regcube replay: what-if the same log through 2 shards"
"$workdir/regcube" replay -wal-dir "$waldir" -spec D2L2C4 -unit 15 \
  -threshold 0.2 -shards 2 -quiet -checkpoint "$workdir/whatif.json" \
  > "$workdir/whatif.log" 2>&1 \
  || { echo "FAIL: regcube replay failed" >&2; cat "$workdir/whatif.log" >&2; exit 1; }
grep -q '# replayed [1-9][0-9]* records' "$workdir/whatif.log" \
  || { echo "FAIL: replay summary missing" >&2; cat "$workdir/whatif.log" >&2; exit 1; }
echo "   $(grep '# replayed' "$workdir/whatif.log")"
[ -s "$workdir/whatif.json" ] || { echo "FAIL: what-if checkpoint not written" >&2; exit 1; }
# The what-if checkpoint is a real checkpoint: streamd resumes from it.
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 2 \
  -checkpoint "$workdir/whatif.json" < /dev/null > "$workdir/whatif-resume.log" 2>&1
grep -q '# resumed at unit' "$workdir/whatif-resume.log" \
  || { echo "FAIL: no resume banner from what-if checkpoint" >&2; cat "$workdir/whatif-resume.log" >&2; exit 1; }

echo "== binary ingest leg: text-fed and binary-fed checkpoints are bitwise-equal"
# Same seed, same spec, both encodings of the same records; the engines
# behind them must land on byte-identical checkpoints.
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 120 -seed 7 \
  > "$workdir/eq.txt" 2>/dev/null
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 120 -seed 7 -format=binary \
  > "$workdir/eq.bin" 2>/dev/null
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -checkpoint "$workdir/eq-text.json" < "$workdir/eq.txt" > /dev/null 2>&1
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -checkpoint "$workdir/eq-bin.json" < "$workdir/eq.bin" > /dev/null 2>&1
cmp "$workdir/eq-text.json" "$workdir/eq-bin.json" \
  || { echo "FAIL: binary-fed checkpoint differs from text-fed" >&2; exit 1; }
echo "   OK checkpoints bitwise-equal ($(wc -c < "$workdir/eq-text.json") bytes)"

echo "== one checkpoint layout: -shards 1 and -shards 4 write the same file"
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 1 \
  -checkpoint "$workdir/eq-s1.json" < "$workdir/eq.txt" > "$workdir/eq-s1.log" 2>&1
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -checkpoint "$workdir/eq-s4.json" < "$workdir/eq.txt" > "$workdir/eq-s4.log" 2>&1
cmp "$workdir/eq-s1.json" "$workdir/eq-s4.json" \
  || { echo "FAIL: -shards 1 and -shards 4 checkpoints differ" >&2; exit 1; }
cmp "$workdir/eq-s1.log" "$workdir/eq-s4.log" \
  || { echo "FAIL: -shards 1 and -shards 4 reports differ" >&2; exit 1; }
# The input is gap-free (every cell reports every tick), so a default
# engine's report may not move: the digest is of the last build that kept
# a flat per-unit history beside the frames.
echo "3177aa80696fe65de8f9cde0fcb17625f6c12ba47f57efd7fe717f3d299de676  $workdir/eq-s1.log" | sha256sum -c --quiet \
  || { echo "FAIL: default-engine report drifted from the recorded one" >&2; exit 1; }
echo "   OK checkpoints and reports bitwise-equal across shard counts, report unchanged"

echo "== legacy per-shard checkpoint: upgrade on read, resume at 1 and 4 shards"
# The fixture is a version-2 (one checkpoint per shard) file, written by
# the last build that had a per-shard writer: -shards 4 over ticks 0-104
# of eq.txt (seven whole units). Resumed over the remaining ticks it must
# land, at either shard count, on the uninterrupted run's checkpoint.
grep -q '"version":2,"shards"' scripts/testdata/legacy-v2-shards4.json \
  || { echo "FAIL: the legacy fixture is not a per-shard v2 file" >&2; exit 1; }
awk -F, '$1 >= 105' "$workdir/eq.txt" > "$workdir/eq-tail.txt"
for shards in 1 4; do
  cp scripts/testdata/legacy-v2-shards4.json "$workdir/legacy-s$shards.json"
  "$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards "$shards" \
    -checkpoint "$workdir/legacy-s$shards.json" \
    < "$workdir/eq-tail.txt" > "$workdir/legacy-s$shards.log" 2>&1
  grep -q '# resumed at unit 7 (7 units done)' "$workdir/legacy-s$shards.log" \
    || { echo "FAIL: legacy file did not resume at $shards shards" >&2; cat "$workdir/legacy-s$shards.log" >&2; exit 1; }
  cmp "$workdir/legacy-s$shards.json" "$workdir/eq-s1.json" \
    || { echo "FAIL: legacy file resumed at $shards shards diverges from the uninterrupted run" >&2; exit 1; }
done
echo "   OK v2 per-shard file resumes at 1 and 4 shards onto the uninterrupted checkpoint"

echo "== binary serve leg: framed pipe, mid-stream queries"
ADDR=127.0.0.1:18082
fifo4="$workdir/bin.fifo"
mkfifo "$fifo4"
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 60000 -pace 5ms -format=binary \
  > "$fifo4" 2>/dev/null &
dpid=$!
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -listen "$ADDR" -checkpoint "$workdir/bin-state.json" \
  < "$fifo4" > "$workdir/bin.log" 2>&1 &
spid=$!
ready=""
for _ in $(seq 1 150); do
  if h=$(fetch /healthz 2>/dev/null) && grep -q '"unitsDone":[1-9]' <<<"$h"; then
    ready=yes
    break
  fi
  sleep 0.2
done
if [ -z "$ready" ]; then
  echo "FAIL: binary-fed server never served a completed unit" >&2
  cat "$workdir/bin.log" >&2
  exit 1
fi
assert_json '/v1/summary'        '"cuboids":\['
assert_json '/v1/exceptions?k=3' '"cells":\['
# The ingest counters must attribute this stream to the binary decoder.
fetch /metrics | grep -q 'regcube_ingest_records_total{format="binary",source="stdin"} [1-9]' \
  || { echo "FAIL: /metrics missing binary ingest counters" >&2; exit 1; }
echo "   OK binary ingest counters live"
kill -INT "$spid"
wait "$spid" || { echo "FAIL: binary-fed streamd exited non-zero" >&2; cat "$workdir/bin.log" >&2; exit 1; }
spid=""
kill "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

echo "== binary WAL crash leg: kill -9 mid-frame, replay is bitwise-deterministic"
binwal="$workdir/bin-wal"
fifo5="$workdir/bin-wal.fifo"
mkfifo "$fifo5"
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 60000 -pace 1ms -format=binary \
  > "$fifo5" 2>/dev/null &
dpid=$!
"$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 4 \
  -wal-dir "$binwal" -wal-sync batch \
  < "$fifo5" > "$workdir/bin-crash.log" 2>&1 &
spid=$!
sleep 2.5
kill -9 "$spid"
wait "$spid" 2>/dev/null || true
spid=""
kill "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""
ls "$binwal"/wal-*.seg >/dev/null 2>&1 \
  || { echo "FAIL: no WAL segments from the binary-fed crash" >&2; exit 1; }
# Replaying the torn log twice must land on byte-identical checkpoints —
# recovery of a binary-fed stream is exact, not merely plausible.
"$workdir/regcube" replay -wal-dir "$binwal" -spec D2L2C4 -unit 15 \
  -threshold 0.2 -shards 4 -quiet -checkpoint "$workdir/bin-replay1.json" \
  > "$workdir/bin-replay.log" 2>&1 \
  || { echo "FAIL: replay of binary-fed WAL failed" >&2; cat "$workdir/bin-replay.log" >&2; exit 1; }
grep -q '# replayed [1-9][0-9]* records' "$workdir/bin-replay.log" \
  || { echo "FAIL: binary replay summary missing" >&2; cat "$workdir/bin-replay.log" >&2; exit 1; }
echo "   $(grep '# replayed' "$workdir/bin-replay.log")"
"$workdir/regcube" replay -wal-dir "$binwal" -spec D2L2C4 -unit 15 \
  -threshold 0.2 -shards 4 -quiet -checkpoint "$workdir/bin-replay2.json" \
  > /dev/null 2>&1
cmp "$workdir/bin-replay1.json" "$workdir/bin-replay2.json" \
  || { echo "FAIL: two replays of the same WAL differ" >&2; exit 1; }
echo "   OK replay checkpoints bitwise-equal"

echo "== alert leg: forced breach -> one dedup'd crit + one recovery via webhook"
ADDR=127.0.0.1:18083
SINK=127.0.0.1:18084
"$workdir/alertsink" -listen "$SINK" > "$workdir/sink.log" 2>&1 &
akpid=$!
fifo6="$workdir/alert.fifo"
mkfifo "$fifo6"
# High engine threshold keeps the exception drill-down empty, so the only
# alert candidates are o-layer cells; -alert-hold 2 means the recovery
# needs two consecutive quiet units before it fires.
"$workdir/streamd" -spec D2L2C4 -unit 4 -threshold 1000 -shards 4 \
  -listen "$ADDR" \
  -alert-warn 2 -alert-crit 5 -alert-hold 2 -alert-webhook "http://$SINK" \
  < "$fifo6" > "$workdir/alert.log" 2>&1 &
spid=$!
# Hold the fifo's write end open past the feed so EOF arrives only after
# the mid-stream queries below.
exec 9> "$fifo6"
# Cell (0,0), slope 10 for units 0-2: one immediate ok->crit at unit 0,
# then dedup'd silence. Flat from tick 12 on: slope 0, hold counts units
# 3 and 4, the crit->ok recovery fires at unit 4.
for t in $(seq 0 11); do echo "$t,0,0,$((t * 10))" >&9; done
for t in $(seq 12 27); do echo "$t,0,0,110" >&9; done
ev=""
for _ in $(seq 1 100); do
  if ev=$(fetch '/v1/alerts/events' 2>/dev/null) && grep -q '"to":"ok"' <<<"$ev"; then
    break
  fi
  ev=""
  sleep 0.1
done
[ -n "$ev" ] || { echo "FAIL: recovery never reached /v1/alerts/events" >&2; cat "$workdir/alert.log" >&2; exit 1; }
grep -q '"to":"crit"' <<<"$ev" || { echo "FAIL: events missing the crit escalation: $ev" >&2; exit 1; }
grep -q '"count":2' <<<"$ev"   || { echo "FAIL: want exactly 2 events (dedup + hold): $ev" >&2; exit 1; }
echo "   OK GET /v1/alerts/events (1 crit + 1 recovery)"
# Alert metrics are live on the same server.
fetch /metrics | grep -q 'regcube_alert_events_total{level="crit",topic="olayer"} 1' \
  || { echo "FAIL: /metrics missing the crit event counter" >&2; exit 1; }
echo "   OK /metrics alert counters"
exec 9>&-   # EOF: the ordered shutdown drains the alert pipeline
wait "$spid" || { echo "FAIL: alerting streamd exited non-zero" >&2; cat "$workdir/alert.log" >&2; exit 1; }
spid=""
# The webhook saw exactly the dedup'd pair, in order.
crits=$(grep -c '"to":"crit"' "$workdir/sink.log" || true)
recov=$(grep -c '"to":"ok"' "$workdir/sink.log" || true)
if [ "$crits" -ne 1 ] || [ "$recov" -ne 1 ]; then
  echo "FAIL: webhook saw $crits crit + $recov recovery events, want exactly 1 + 1" >&2
  cat "$workdir/sink.log" >&2
  exit 1
fi
echo "   OK webhook received 1 dedup'd crit + 1 recovery"
# The log sink printed the same pair.
[ "$(grep -c 'ALERTEVENT' "$workdir/alert.log" || true)" -eq 2 ] \
  || { echo "FAIL: ALERTEVENT lines != 2" >&2; cat "$workdir/alert.log" >&2; exit 1; }
kill "$akpid" 2>/dev/null || true
wait "$akpid" 2>/dev/null || true
akpid=""

echo "== forecast leg: ramp toward threshold -> willBreach mid-stream + predictive alert"
ADDR=127.0.0.1:18085
SINK=127.0.0.1:18086
"$workdir/alertsink" -listen "$SINK" > "$workdir/fsink.log" 2>&1 &
akpid=$!
fifo7="$workdir/forecast.fifo"
mkfifo "$fifo7"
# Forecast-only node: no -alert-crit, so the slope topics stay silent and
# every event below is the predictive topic. The flag pair doubles as the
# GET-shim defaults, so /v1/forecast needs no query parameters.
"$workdir/streamd" -spec D2L2C4 -unit 4 -threshold 1000 -shards 4 \
  -listen "$ADDR" \
  -forecast-threshold 1000 -forecast-horizon 8 \
  -alert-webhook "http://$SINK" \
  < "$fifo7" > "$workdir/forecast.log" 2>&1 &
spid=$!
exec 9> "$fifo7"
# Cell (0,0) rises 10/tick toward 1000: at unit 23 (ticks 92-95) the fitted
# line sits at 950, five ticks from the threshold — inside the 8-tick
# horizon, so the forecast goes crit while the measured value is still 5%
# below the line it is forecast to cross.
for t in $(seq 0 99); do echo "$t,0,0,$((t * 10))" >&9; done
fc=""
for _ in $(seq 1 100); do
  if fc=$(fetch '/v1/forecast?members=0,0' 2>/dev/null) && grep -q '"willBreach":true' <<<"$fc"; then
    break
  fi
  fc=""
  sleep 0.1
done
[ -n "$fc" ] || { echo "FAIL: /v1/forecast never predicted the breach" >&2; cat "$workdir/forecast.log" >&2; exit 1; }
grep -q '"ticksToThreshold":' <<<"$fc" || { echo "FAIL: forecast missing ticksToThreshold: $fc" >&2; exit 1; }
echo "   OK GET /v1/forecast (flag defaults, willBreach mid-stream)"
assert_json '/v1/changes' '"cells":'
ev=""
for _ in $(seq 1 100); do
  if ev=$(fetch '/v1/alerts/events' 2>/dev/null) && grep -q '"topic":"forecast"' <<<"$ev"; then
    break
  fi
  ev=""
  sleep 0.1
done
[ -n "$ev" ] || { echo "FAIL: no forecast-topic event on /v1/alerts/events" >&2; cat "$workdir/forecast.log" >&2; exit 1; }
echo "   OK GET /v1/alerts/events (forecast topic live)"
exec 9>&-   # EOF: ordered shutdown drains the alert pipeline
wait "$spid" || { echo "FAIL: forecasting streamd exited non-zero" >&2; cat "$workdir/forecast.log" >&2; exit 1; }
spid=""
fevents=$(grep -c '"topic":"forecast"' "$workdir/fsink.log" || true)
[ "$fevents" -ge 1 ] || { echo "FAIL: webhook saw $fevents forecast events, want >= 1" >&2; cat "$workdir/fsink.log" >&2; exit 1; }
slope_events=$(grep -c '"topic":"olayer"\|"topic":"drill"' "$workdir/fsink.log" || true)
[ "$slope_events" -eq 0 ] || { echo "FAIL: forecast-only node emitted $slope_events slope-topic events" >&2; cat "$workdir/fsink.log" >&2; exit 1; }
echo "   OK webhook received $fevents forecast event(s), no slope-topic noise"
kill "$akpid" 2>/dev/null || true
wait "$akpid" 2>/dev/null || true
akpid=""

echo "== cluster leg: 4 streamd nodes + router, scatter-gather coordinator, merged checkpoint"
CADDR=127.0.0.1:18090
node_ing=(127.0.0.1:19091 127.0.0.1:19092 127.0.0.1:19093 127.0.0.1:19094)
node_api=(127.0.0.1:18091 127.0.0.1:18092 127.0.0.1:18093 127.0.0.1:18094)
npids=()
for i in 0 1 2 3; do
  "$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 1 \
    -ingest-listen "${node_ing[$i]}" -listen "${node_api[$i]}" -node-id "node-$i" \
    -checkpoint "$workdir/node$i.json" > "$workdir/node$i.log" 2>&1 &
  npids+=($!)
done
# Wait for every node's ingest listener before pointing the router at them.
for i in 0 1 2 3; do
  ok=""
  for _ in $(seq 1 50); do
    if grep -q '# ingest listening' "$workdir/node$i.log"; then ok=yes; break; fi
    sleep 0.1
  done
  [ -n "$ok" ] || { echo "FAIL: node $i never listened" >&2; cat "$workdir/node$i.log" >&2; exit 1; }
done
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 1200 -seed 7 -pace 5ms -format=binary 2>/dev/null \
  | "$workdir/regcube-router" -spec D2L2C4 -unit 15 \
      -nodes "$(IFS=,; echo "${node_ing[*]}")" \
      -node-api "$(IFS=,; echo "${node_api[*]/#/http://}")" \
      -listen "$CADDR" -node-id coord > "$workdir/router.log" 2>&1 &
rpid=$!
ADDR=$CADDR
ready=""
for _ in $(seq 1 150); do
  if h=$(fetch /healthz 2>/dev/null) && grep -q '"unitsDone":[1-9]' <<<"$h"; then
    ready=yes
    break
  fi
  sleep 0.2
done
if [ -z "$ready" ]; then
  echo "FAIL: coordinator never served a completed unit" >&2
  cat "$workdir/router.log" >&2; cat "$workdir/node0.log" >&2
  exit 1
fi
echo "   coordinator healthz: $h"
# Mid-stream scatter-gather queries and the cluster-wide info document.
assert_json '/v1/exceptions?k=5' '"cells":\['
assert_json '/v1/alerts'         '"alerts":\['
# The predictive endpoints answer from the coordinator's merged snapshot.
assert_json '/v1/forecast?members=0,0&horizon=8&threshold=1000' '"predicted":'
assert_json '/v1/changes'        '"cells":'
info=$(fetch /v1/info)
grep -q '"role":"coordinator"' <<<"$info" || { echo "FAIL: /v1/info not a coordinator: $info" >&2; exit 1; }
grep -q '"nodeId":"node-3"' <<<"$info"    || { echo "FAIL: /v1/info missing node-3: $info" >&2; exit 1; }
reach=$(grep -o '"reachable":true' <<<"$info" | wc -l || true)
[ "$reach" -eq 4 ] || { echo "FAIL: /v1/info reports $reach reachable nodes, want 4: $info" >&2; exit 1; }
echo "   OK GET /v1/info (coordinator, 4 reachable nodes)"
# Node-side ingest accounting: records arrived over TCP, not stdin. The
# partitioner may legitimately leave a node cold on a small schema, so
# count busy nodes rather than pinning one.
busy=0
for i in 0 1 2 3; do
  nm=$(curl -fsS --max-time 5 "http://${node_api[$i]}/metrics")
  if grep -q 'regcube_ingest_records_total{format="binary",source="tcp"} [1-9]' <<<"$nm"; then
    busy=$((busy + 1))
  fi
  if grep -q 'source="stdin"} [1-9]' <<<"$nm"; then
    echo "FAIL: node $i counted stdin-sourced records on a TCP-only run: $nm" >&2; exit 1
  fi
done
[ "$busy" -ge 2 ] || { echo "FAIL: only $busy nodes counted tcp-sourced records" >&2; exit 1; }
echo "   OK node /metrics (source=\"tcp\" ingest counters on $busy nodes)"
# Let the stream finish, then take the whole cluster down gracefully.
done_route=""
for _ in $(seq 1 300); do
  if grep -q '^# routed' "$workdir/router.log"; then done_route=yes; break; fi
  sleep 0.2
done
[ -n "$done_route" ] || { echo "FAIL: router never finished the stream" >&2; cat "$workdir/router.log" >&2; exit 1; }
echo "   $(grep '^# routed' "$workdir/router.log")"
kill -INT "$rpid"
wait "$rpid" || { echo "FAIL: router exited non-zero" >&2; cat "$workdir/router.log" >&2; exit 1; }
rpid=""
for i in 0 1 2 3; do
  kill -INT "${npids[$i]}"
  wait "${npids[$i]}" || { echo "FAIL: node $i exited non-zero" >&2; cat "$workdir/node$i.log" >&2; exit 1; }
done
npids=()
# Reference: one single-shard engine over the identical stream.
"$workdir/datagen" -spec D2L2C4T2K -stream -ticks 1200 -seed 7 -format=binary 2>/dev/null \
  | "$workdir/streamd" -spec D2L2C4 -unit 15 -threshold 0.2 -shards 1 \
      -checkpoint "$workdir/cluster-single.json" > /dev/null 2>&1
"$workdir/regcube" merge -o "$workdir/cluster-merged.json" \
  "$workdir/node0.json" "$workdir/node1.json" "$workdir/node2.json" "$workdir/node3.json" \
  2> "$workdir/merge.log" || { echo "FAIL: regcube merge failed" >&2; cat "$workdir/merge.log" >&2; exit 1; }
cmp "$workdir/cluster-merged.json" "$workdir/cluster-single.json" \
  || { echo "FAIL: merged 4-node checkpoint differs from the single engine" >&2; exit 1; }
echo "   OK 4-node merged checkpoint bitwise-equal to single engine ($(wc -c < "$workdir/cluster-merged.json") bytes)"

echo "e2e smoke OK"
