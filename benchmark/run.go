package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports. The last stdout
// line is its contract form (correct, attempted, failed, metrics); the
// -out file keeps the whole of it.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// EndToEnd holds the bounded metrics, measured with tracing off.
	EndToEnd map[string]metric `json:"end_to_end"`
	// PerLayer holds the unbounded ones: those read off the same untraced
	// run, plus — after a traced pass — every layer's own numbers.
	PerLayer map[string]metric `json:"per_layer"`
	// Samples are the sample counts behind the percentiles, and Percentile
	// the percentile each tail metric could actually support.
	Samples    map[string]int     `json:"samples"`
	Percentile map[string]float64 `json:"percentile_used"`
	Checks     []checkJSON        `json:"checks"`
	// Disturbed marks a window during which the hypervisor kept more than
	// stolenLimit of the box's processor time for other guests.
	Disturbed bool     `json:"disturbed"`
	Host      hostInfo `json:"host"`
}

type checkJSON struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note"`
}

// addCheck records one verification as an attempted operation; a failed
// one makes the run incorrect.
func (r *result) addCheck(c check) {
	r.Checks = append(r.Checks, checkJSON{c.name, c.ok, c.note})
	r.Attempted++
	if !c.ok {
		r.Correct = false
		r.Failed++
	}
}

// A run that errs, comes out incorrect or was disturbed — the hypervisor
// kept more than stolenLimit of its window for other guests — is made
// again, whole, while tries are left (maxTries) and it began less than
// retryWithin ago, so the tries together end well inside the three minutes
// one run may take. The box is a shared virtual machine: a pause of a
// second makes hundreds of paced queries late, and a neighbour can take the
// port a listener was promised. A fault of the programs under test comes
// back on the next try and still fails the run; a box that stays disturbed
// is reported as measured, scaled by what it was left with. The failed
// tries are reported as run_retries.
const (
	maxTries    = 2
	retryWithin = 100 * time.Second
)

// measure is one reported run of a workload: the untraced pass, then the
// traced pass when asked for, tried again as a whole when either fails.
func measure(w workload, seed int64, seconds float64, l launcher, root string, traced, smoke bool, traceDir string) (*result, error) {
	began := time.Now()
	for try := 1; ; try++ {
		res, err := runUntraced(w, seed, seconds, l, root)
		last := try == maxTries || time.Since(began) > retryWithin
		good := err == nil && res.Correct && !res.Disturbed
		// The traced pass is not spent on a window that will be run again.
		if traced && (good || (last && err == nil)) {
			err = runTraced(w, res, smoke, traceDir)
			good = good && err == nil && res.Correct
		}
		if good || last {
			if err == nil {
				res.PerLayer["run_retries"] = metric{float64(try - 1), "count"}
			}
			return res, err
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "benchmark: %s: try %d failed, trying again: %v\n", w.name, try, err)
		case res.Disturbed:
			fmt.Fprintf(os.Stderr, "benchmark: %s: try %d lost %.0f%% of its window to other guests of the hypervisor, trying again\n",
				w.name, try, 100*res.PerLayer["host.stolen_share"].Value)
		}
		if err == nil {
			for _, c := range res.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "benchmark: %s: try %d failed check %s (%s), trying again\n", w.name, try, c.Name, c.Note)
				}
			}
		}
	}
}

// runUntraced sets the workload's system up (setupReps times, keeping the
// last), drives the measured window against it, verifies its outputs,
// exercises the restart, and tears everything down.
func runUntraced(w workload, seed int64, seconds float64, l launcher, root string) (*result, error) {
	res := &result{
		Workload: w.name, Seed: seed, Seconds: seconds,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
		Samples: map[string]int{}, Percentile: map[string]float64{},
		Host: readHost(),
	}
	cal := startCalibrator()
	defer cal.stop()
	var sys *system
	var setups []float64
	setupPhase := cal.begin()
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.teardown()
		}
		t0 := time.Now()
		var err error
		if sys, err = setUp(w, seed, l, root); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.teardown()
	fmt.Fprintf(os.Stderr, "benchmark: %s: set-ups took %.3fs\n", w.name, setups)

	setupSpeed, setupHad := cal.end(setupPhase)
	windowPhase := cal.begin()
	win, err := sys.runWindow(seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: window: %w", w.name, err)
	}
	windowSpeed, windowHad := cal.end(windowPhase)
	res.Disturbed = 1-windowHad > stolenLimit
	// Peak memory is read while every process of the window still lives.
	var rss float64
	for _, pid := range sys.sutPids() {
		mb, err := procPeakMB(pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	checks, rejected, busDropped := sys.verify(win)
	recovery, more, err := sys.recover(win)
	if err != nil {
		return nil, fmt.Errorf("%s: restart: %w", w.name, err)
	}
	checks = append(checks, more...)
	checks = append(checks, check{"sustained", !win.unsustained,
		fmt.Sprintf("lateness grew %.1f ms across the window", win.backlogMs)})

	queryMs, badQueries := queryLatencies(win.queries)
	checks = append(checks, check{"queries_ok", badQueries == 0,
		fmt.Sprintf("%d of %d queries failed, were refused or took over %v", badQueries, len(win.queries), lateQuery)})
	visible := win.visibleMs()
	if len(visible) == 0 {
		return nil, fmt.Errorf("%s: no successful query saw a window unit (%d of %d queries failed)",
			w.name, badQueries, len(win.queries))
	}

	// Operations are the records sent, the queries issued and the checks
	// made; any that fails makes the run incorrect.
	res.Correct = true
	res.Attempted = sys.sent + int64(len(win.queries))
	res.Failed = rejected + badQueries
	for _, c := range checks {
		res.addCheck(c)
	}

	e2e := func(name string, v float64, unit string) { res.EndToEnd[name] = metric{v, unit} }
	layer := func(name string, v float64, unit string) { res.PerLayer[name] = metric{v, unit} }
	tail := func(name string, xs []float64, p float64) {
		v, used := percentile(xs, p)
		layer(name, v, "ms")
		res.Percentile[name] = used
	}
	elapsed := win.end.Sub(win.start).Seconds()
	// What the state of the box sets is reported twice: as a box at nominal
	// speed, with its processors to itself, would have measured it (the
	// bounded metric), and raw. CPU time per record scales with the speed.
	// The set-up, and the rate of a closed loop — which runs as fast as the
	// box lets it — scale with the speed and with the share of the time the
	// guest had its processors, and so does a closed loop's unit_visible, a
	// queue of units. A paced workload's rate is its schedule's. About half
	// of a query's latency, and of a paced unit_visible, is a wait — for a
	// wake-up, a timer, the next poll — that a slower box does not stretch:
	// they follow the square root of the speed (README.md has the
	// measurements).
	rate, visible50 := windowSpeed*windowHad, windowSpeed*windowHad
	if w.paced() {
		rate, visible50 = 1, math.Sqrt(windowSpeed)
	}
	both := func(name string, raw, scale float64, unit string) {
		e2e(name, raw*scale, unit)
		layer("raw."+name, raw, unit)
	}
	both("setup_s", median(setups), setupSpeed*setupHad, "s")
	both("ingest_rec_per_s", float64(win.records)/elapsed, 1/rate, "rec/s")
	both("cpu_us_per_rec", win.sutCPU*1e6/float64(win.records), windowSpeed, "us")
	e2e("rss_peak_mb", rss, "MB")
	both("unit_visible_ms_p50", median(visible), visible50, "ms")
	both("query_ms_p50", median(queryMs), math.Sqrt(windowSpeed), "ms")
	layer("host.speed_setup", setupSpeed, "ratio")
	layer("host.speed_window", windowSpeed, "ratio")
	layer("host.stolen_share", 1-windowHad, "ratio")
	res.Samples["unit_visible"] = len(visible)
	res.Samples["query"] = len(queryMs)
	res.Samples["units"] = len(win.reportMs)

	// Four of the issue's ten end-to-end names are reported without a
	// bound: the two tails repeat too badly on a 2-core box, a restart
	// means something on one workload only, and a healthy run fails
	// nothing, which no ratio bound can be measured against (README.md).
	tail("unit_visible_ms_p95", visible, 95)
	tail("query_ms_p99", queryMs, 99)
	layer("recovery_s", recovery, "s")
	layer("fail_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	layer("stream.bus_dropped", busDropped, "count")
	layer("node.unit_report_ms_p50", median(win.reportMs), "ms")
	tail("node.unit_report_ms_p95", win.reportMs, 95)
	tail("node.ingest_late_ms_p95", win.lateMs, 95)
	layer("gen.busy_share", win.genCPU/elapsed, "cores")
	layer("unit_visible_samples", float64(len(visible)), "count")
	layer("query_samples", float64(len(queryMs)), "count")
	layer("run_retries", 0, "count") // measure counts the tries
	return res, nil
}

// queryLatencies returns every query's latency from its due time, and how
// many failed, were refused or took longer than lateQuery. Such a query
// missed every latency limit: it enters the percentiles as at least
// lateQuery, so failing fast can never read as answering fast.
func queryLatencies(queries []querySample) (ms []float64, bad int64) {
	for _, q := range queries {
		d := q.done.Sub(q.due)
		if !q.ok || d > lateQuery {
			bad++
			d = max(d, lateQuery)
		}
		ms = append(ms, float64(d)/1e6)
	}
	return ms, bad
}

// buildSUT builds the two programs under test into dir, from the module
// this benchmark sits in. It runs before any timing. The binaries carry no
// VCS stamp: a checkout is not a repository, and go must not ask git about
// one it finds in a directory above.
func buildSUT(repoRoot, dir string) error {
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", dir+string(filepath.Separator), "./cmd/streamd", "./cmd/regcube-router")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the programs under test: %w\n%s", err, out)
	}
	return nil
}

// live tracks what must not outlive the benchmark: every child process
// and the temporary directory. A signal or a failure path calls cleanup.
var live struct {
	sync.Mutex
	procs map[*proc]bool
	root  string
}

func track(p *proc) {
	live.Lock()
	defer live.Unlock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
}

func untrack(p *proc) {
	live.Lock()
	defer live.Unlock()
	delete(live.procs, p)
}

// cleanup kills every tracked child, waits for each, and removes the
// temporary directory.
func cleanup() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	root := live.root
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if root != "" {
		os.RemoveAll(root)
	}
}
