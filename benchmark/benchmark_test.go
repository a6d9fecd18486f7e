package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// streamBytes encodes the first units of an input as the feeder would.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := newInput("D2L2C4", 100, 8, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	enc := encoder{in: in}
	out := enc.header()
	for _, perTick := range []bool{false, true} {
		cuts := in.cuts(perTick)
		for u := int64(0); u < cycleUnits+1; u++ {
			for i := 0; i+1 < len(cuts); i++ {
				out = append(out, enc.frame(u, cuts[i], cuts[i+1])...)
			}
		}
	}
	return out
}

func TestInputIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same stream")
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	upTo := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		p          float64
		want, used float64
	}{
		{200, 95, 190, 95},    // exactly ten beyond: p95 stands
		{100, 95, 90, 90},     // p95 would leave five beyond: lowered to p90
		{3000, 99, 2970, 99},  // thirty beyond
		{750, 99, 740, 98.67}, // p99 would leave seven beyond
		{15, 95, 8, 53.33},    // never below the median
		{200, 50, 100, 50},    // the median itself is not a tail
	} {
		got, used := percentile(upTo(tc.n), tc.p)
		if got != tc.want || math.Abs(used-tc.used) > 0.01 {
			t.Errorf("percentile(1..%d, %g) = %g at p%.2f, want %g at p%.2f", tc.n, tc.p, got, used, tc.want, tc.used)
		}
	}
	if v, used := percentile(nil, 95); v != 0 || used != 0 {
		t.Errorf("empty sample: %g, %g", v, used)
	}
}

func TestFailedAndLateQueriesCountAsSlow(t *testing.T) {
	due := time.Unix(0, 0)
	after := func(d time.Duration) time.Time { return due.Add(d) }
	ms, bad := queryLatencies([]querySample{
		{due: due, done: after(2 * time.Millisecond), ok: true},
		{due: due, done: after(time.Millisecond), ok: false},       // refused at once
		{due: due, done: after(1500 * time.Millisecond), ok: true}, // answered late
	})
	if bad != 2 || len(ms) != 3 || ms[0] != 2 || ms[1] != 1000 || ms[2] != 1500 {
		t.Errorf("latencies %v with %d bad; want [2 1000 1500] with 2", ms, bad)
	}
}

func TestQuartilesMatchPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %g, %g and median %g; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %g, want 1", got)
	}
}

// TestSpeedIsNominalOverTheTrimmedMean pins the calibrator's arithmetic: a
// phase reads its own bursts only, an outlier at either end does not move
// it, and a box twice as slow reads half the speed.
func TestSpeedIsNominalOverTheTrimmedMean(t *testing.T) {
	c := &calibrator{}
	for i := 0; i < 10; i++ {
		c.burstNs = append(c.burstNs, calibNominalNs)
	}
	c.burstNs[3], c.burstNs[7] = 50*calibNominalNs, 0 // an interrupt inside one burst, a clock glitch in another
	for i := 0; i < 10; i++ {
		c.burstNs = append(c.burstNs, 2*calibNominalNs)
	}
	if got := c.speed(0, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed over the nominal bursts = %g, want 1", got)
	}
	if got := c.speed(10, 20); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed over bursts twice as long = %g, want 0.5", got)
	}
	if got := c.speed(20, 20); got != 1 {
		t.Errorf("speed over no bursts = %g, want nominal", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "ingest", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "close", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 3, Name: "decode", Start: 25, End: 35},  // a grandchild
		{ID: 6, Parent: 0, Name: "unit", Start: 200, End: 260},  // childless
		{ID: 7, Parent: 6, Name: "empty", Start: 210, End: 210}, // zero-length child
	}
	self := selfTimes(spans)
	// unit 1: 100 − ([10,50) ∪ [90,100)) = 50; ingest: 30 − 10 = 20.
	for i, want := range []int64{50, 20, 20, 30, 10, 60, 0} {
		if self[i] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, self[i], want)
		}
	}
	stats := layerStats(spans)
	if got := stats["unit"]; got != (layerStat{Count: 2, TotalNs: 160, SelfNs: 110}) {
		t.Errorf("unit layer: %+v", got)
	}
	if got := stats["decode"]; got != (layerStat{Count: 2, TotalNs: 30, SelfNs: 30}) {
		t.Errorf("decode layer: %+v", got)
	}
}

func TestTracerNestsAndSwitchesOff(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("outer", 3)
	tr.end(tr.begin("inner", 4))
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 || tr.spans[1].Ref != 4 {
		t.Errorf("spans: %+v", tr.spans)
	}
	off := newTracer(false)
	off.end(off.begin("x", 0))
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEmitsEveryMetric runs every workload at smoke size, programs
// under test in-process, untraced and traced, and holds the output to
// BENCHMARK.json: each listed metric exactly once per workload, nothing
// missing, names and counts inside the contract's limits.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) || len(man.Workloads) > 8 || len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics", len(man.Workloads), len(man.EndToEnd), len(man.PerLayer))
	}
	seen := map[string]bool{}
	for _, mm := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if !metricName.MatchString(mm.Name) || seen[mm.Name] {
			t.Errorf("metric name %q is malformed or listed twice", mm.Name)
		}
		seen[mm.Name] = true
	}
	live.root = t.TempDir()
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the suite", i, man.Workloads[i].Name, w.name)
		}
		res, err := runUntraced(w.smoke(), 2002, 0.3, launcher{}, live.root)
		if err != nil {
			t.Fatal(err)
		}
		if err := runTraced(w.smoke(), res, true, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Checks {
			// Whether a paced run kept up is a property of the box (the race
			// detector alone slows it tenfold), not of the code under test.
			if !c.OK && c.Name != "sustained" {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Note)
			}
		}
		for traced, want := range map[bool][]manifestMetric{false: man.EndToEnd, true: man.PerLayer} {
			var out bytes.Buffer
			printResult(&out, man, res, traced)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the contract object: %v", w.name, err)
			}
			if line.Correct != res.Correct || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v with %d metrics, want %v with %d", w.name, traced, line.Correct, len(line.Metrics), res.Correct, len(want))
			}
			for _, mm := range want {
				m, ok := line.Metrics[mm.Name]
				if !ok || m.Unit != mm.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %q = %+v (listed unit %q)", w.name, traced, mm.Name, m, mm.Unit)
				}
			}
			for name := range line.Metrics {
				if strings.Count(out.String(), " "+name+" ") != 1 {
					t.Errorf("%s traced=%v: %q is not printed exactly once", w.name, traced, name)
				}
			}
		}
		for name, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g; the bounds are ratios, it must never be 0", w.name, name, m.Value)
			}
		}
	}
}

// TestRealProcessesServeWhatInProcessOnesDo builds the programs under test
// and sets the same smoke workloads up twice on the same seeded warm-up:
// as real processes from nodeSettings.flags() and the router's command
// line, and as goroutines from nodeSettings.config() and
// startRouterInProcess. Every endpoint that answers from a flag default
// (threshold, algorithm, alert hold, forecast horizon, change score) must
// serve the same bytes, so the settings copied into config() cannot drift
// from streamd's defaults unnoticed, and buildSUT and startProcess run
// under test.
func TestRealProcessesServeWhatInProcessOnesDo(t *testing.T) {
	bin := t.TempDir()
	if err := buildSUT("..", bin); err != nil {
		t.Fatal(err)
	}
	live.root = t.TempDir()
	for _, name := range []string{"durable_serve", "cluster_serve"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		served := map[bool]map[string]string{}
		for _, real := range []bool{true, false} {
			l := launcher{}
			if real {
				l.binDir = bin
			}
			sys, err := setUp(w.smoke(), 2002, l, live.root)
			if err != nil {
				t.Fatalf("%s real=%v: %v", name, real, err)
			}
			cell := strings.Trim(strings.ReplaceAll(fmt.Sprint(sys.in.oCell), " ", ","), "[]")
			served[real] = map[string]string{}
			for _, path := range []string{
				"/v1/summary", "/v1/exceptions", "/v1/alerts", "/v1/alerts/events", "/v1/changes",
				"/v1/forecast?members=" + cell, "/v1/trend?members=" + cell, "/v1/frame?members=" + cell,
			} {
				resp, err := sys.hc.Get(sys.queryURL + path)
				if err != nil {
					t.Fatalf("%s real=%v: %v", name, real, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s real=%v: %s: %v", name, real, path, err)
				}
				if path == "/v1/summary" {
					// The stats block holds wall-clock phase times.
					if body, err = summaryWithoutStats(body); err != nil {
						t.Fatalf("%s real=%v: %s: %v", name, real, path, err)
					}
				}
				served[real][path] = fmt.Sprintf("%d %s", resp.StatusCode, body)
			}
			sys.teardown()
		}
		for path, want := range served[true] {
			if got := served[false][path]; got != want {
				t.Errorf("%s %s: in-process serves\n%.300s\nthe real process\n%.300s", name, path, got, want)
			}
		}
		if !strings.HasPrefix(served[true]["/v1/exceptions"], "200 ") {
			t.Errorf("%s: real process answered /v1/exceptions with %.100s", name, served[true]["/v1/exceptions"])
		}
	}
	if left, _ := filepath.Glob(filepath.Join(live.root, "*")); len(left) != 0 {
		t.Errorf("teardown left %v behind", left)
	}
	if _, err := os.Stat(filepath.Join(bin, "streamd")); err != nil {
		t.Error(err)
	}
}

func TestCompareJudgesAgainstTheBound(t *testing.T) {
	man := &manifest{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []manifestMetric{
			{Name: "steady_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "slower_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	runs := func(vals map[string][]float64) []*result {
		var out []*result
		for i := 0; i < 5; i++ {
			r := &result{Workload: "w", Seed: int64(i), Seconds: 15, Attempted: 1000, EndToEnd: map[string]metric{}}
			for name, xs := range vals {
				r.EndToEnd[name] = metric{Value: xs[i]}
			}
			out = append(out, r)
		}
		return out
	}
	dir := t.TempDir()
	base, cur := dir+"/base.json", dir+"/new.json"
	if err := writeResults(base, runs(map[string][]float64{
		"steady_ms": {10, 10.1, 9.9, 10, 10.05}, "slower_ms": {10, 10.1, 9.9, 10, 10.05},
		"noisy_ms": {10, 14, 7, 12, 9}, "rate": {100, 101, 99, 100, 100.5},
	})); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(cur, runs(map[string][]float64{
		"steady_ms": {10.3, 10.4, 10.2, 10.3, 10.35}, "slower_ms": {12, 12.1, 11.9, 12, 12.05},
		"noisy_ms": {10, 14, 7, 12, 9}, "rate": {95, 96, 94, 95, 95.5},
	})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareFiles(man, base, cur, &out); code != 1 {
		t.Errorf("exit code %d, want 1 for a regression\n%s", code, out.String())
	}
	for name, verdict := range map[string]string{"steady_ms": "ok", "slower_ms": "REGRESSION", "noisy_ms": "unresolved", "rate": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+name+" ") {
				found = strings.HasSuffix(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", name, verdict, out.String())
		}
	}
	if code := compareFiles(man, base, base, &out); code != 0 {
		t.Errorf("a file against itself: exit code %d", code)
	}

	// More failed operations is a regression whatever the timings say, and
	// runs of another window length, seed or host are not compared at all.
	same := map[string][]float64{"steady_ms": {10, 10.1, 9.9, 10, 10.05}}
	failing, short := runs(same), runs(same)
	failing[3].Failed = 2
	for _, r := range short {
		r.Seconds = 3
	}
	for _, tc := range []struct {
		name string
		runs []*result
		code int
		want string
	}{
		{"failing", failing, 1, "REGRESSION"},
		{"short", short, 2, ""},
		{"fewer", runs(same)[:4], 2, ""},
	} {
		path := dir + "/" + tc.name + ".json"
		if err := writeResults(path, tc.runs); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if code := compareFiles(man, base, path, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s against base: exit code %d, want %d with %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
