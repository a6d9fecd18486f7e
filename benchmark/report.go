package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contractLine is the last stdout line of a run: exactly these keys.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints every metric by name with its unit, the checks, and
// last the contract line: the end-to-end metrics of BENCHMARK.json for an
// untraced run, its per-layer metrics for a traced one.
func printResult(w io.Writer, man *manifest, res *result, traced bool) {
	fmt.Fprintf(w, "== %s  seed %d  window %gs  (%s, %d cpus, load %.2f%s)\n", res.Workload, res.Seed, res.Seconds,
		res.Host.Commit, res.Host.NumCPU, res.Host.LoadAvg1, map[bool]string{true: " — BUSY HOST, timings suspect"}[res.Host.Busy])
	row := func(name string, m metric) {
		note := ""
		if p, ok := res.Percentile[name]; ok {
			note = fmt.Sprintf("   (p%.1f supported)", p)
		}
		fmt.Fprintf(w, "%-14s %-42s %16.6g %s%s\n", res.Workload, name, m.Value, m.Unit, note)
	}
	for _, name := range sortedNames(res.EndToEnd) {
		row(name, res.EndToEnd[name])
	}
	for _, name := range sortedNames(res.PerLayer) {
		row(name, res.PerLayer[name])
	}
	fmt.Fprintf(w, "%-14s samples: %d units, %d unit-visible, %d queries\n", res.Workload,
		res.Samples["units"], res.Samples["unit_visible"], res.Samples["query"])
	for _, c := range res.Checks {
		fmt.Fprintf(w, "%-14s check %-22s %-5v %s\n", res.Workload, c.Name, c.OK, c.Note)
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	want, have := man.EndToEnd, res.EndToEnd
	if traced {
		want, have = man.PerLayer, res.PerLayer
	}
	for _, mm := range want {
		m, ok := have[mm.Name]
		if !ok {
			// BENCHMARK.json and the code disagree: not a result anyone
			// should trust.
			fmt.Fprintf(os.Stderr, "benchmark: %s produced no %q, which BENCHMARK.json lists\n", res.Workload, mm.Name)
			line.Correct = false
			continue
		}
		line.Metrics[mm.Name] = m
	}
	data, _ := json.Marshal(line) // plain structs and maps of numbers: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// resultsFile is the -out format.
type resultsFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, all []*result) error {
	data, err := json.MarshalIndent(resultsFile{all}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series collects, per workload and end-to-end metric, the values of all
// reps in run order.
func series(all []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range all {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSummary prints, after -reps runs, each end-to-end metric's median,
// quartiles and spread against its bound.
func printSummary(w io.Writer, man *manifest, all []*result) {
	fmt.Fprintf(w, "\n%-14s %-22s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "reps", "q1", "median", "q3", "spread", "bound")
	ser := series(all)
	for _, wl := range man.Workloads {
		for _, mm := range man.EndToEnd {
			xs := ser[wl.Name][mm.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			flag := ""
			if spread(xs) > mm.Bound {
				flag = "  spread exceeds bound"
			}
			fmt.Fprintf(w, "%-14s %-22s %5d %14.6g %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				wl.Name, mm.Name, len(xs), q1, median(xs), q3, 100*spread(xs), 100*mm.Bound, flag)
		}
	}
}

// loadResults reads an -out file.
func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return f.Results, nil
}

// runKey is what two runs must share before their numbers may be compared:
// the workload and its input, the window, and the box. The commit is what
// a comparison is about, and the load average is reported, not matched.
type runKey struct {
	workload string
	seed     int64
	seconds  float64
	goVer    string
	cpu      string
	nproc    int
	maxprocs int
}

func keyOf(r *result) runKey {
	return runKey{r.Workload, r.Seed, r.Seconds, r.Host.GoVersion, r.Host.CPUModel, r.Host.NumCPU, r.Host.GOMAXPROCS}
}

// sameRuns refuses two result sets that were not measured the same way:
// every run of one must have a counterpart in the other on the same
// workload, seed, window length and host.
func sameRuns(base, cur []*result) error {
	count := map[runKey]int{}
	for _, r := range base {
		count[keyOf(r)]++
	}
	for _, r := range cur {
		count[keyOf(r)]--
	}
	for k, n := range count {
		if n != 0 {
			side := map[bool]string{true: "base", false: "new"}[n > 0]
			return fmt.Errorf("only the %s file has %s seed %d with a %gs window on %s, %d cpus, GOMAXPROCS %d, %s: "+
				"results are comparable only run for run, with the same seeds, window and host",
				side, k.workload, k.seed, k.seconds, k.cpu, k.nproc, k.maxprocs, k.goVer)
		}
	}
	return nil
}

// failShares returns, per workload, failed ÷ attempted over all its runs.
func failShares(all []*result) map[string]float64 {
	failed, attempted := map[string]int64{}, map[string]int64{}
	for _, r := range all {
		failed[r.Workload] += r.Failed
		attempted[r.Workload] += r.Attempted
	}
	out := map[string]float64{}
	for w, n := range attempted {
		out[w] = float64(failed[w]) / float64(max(n, 1))
	}
	return out
}

// compareFiles judges new against base, per workload and end-to-end
// metric, by the rule of BENCHMARK.json: the new median may be worse than
// the base median by at most the metric's bound. Where either side's own
// spread exceeds the bound the pair is unresolved, not unchanged. The
// share of failed operations has the bound 0: no gain counts when more
// operations fail. Returns the process exit code: 1 when anything
// regressed, 2 when the files cannot be compared at all.
func compareFiles(man *manifest, basePath, newPath string, w io.Writer) int {
	refuse := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	baseRuns, err := loadResults(basePath)
	if err != nil {
		return refuse(err)
	}
	curRuns, err := loadResults(newPath)
	if err != nil {
		return refuse(err)
	}
	if err := sameRuns(baseRuns, curRuns); err != nil {
		return refuse(err)
	}
	for i, runs := range [][]*result{baseRuns, curRuns} {
		path := []string{basePath, newPath}[i]
		busy, short := 0, 0
		for _, r := range runs {
			if r.Host.Busy {
				busy++
			}
			if r.Seconds < float64(man.RunSeconds) {
				short++
			}
		}
		if busy > 0 {
			fmt.Fprintf(w, "warning: %d of %d runs in %s began under a load average above 0.5; their timings are suspect\n", busy, len(runs), path)
		}
		if short > 0 {
			fmt.Fprintf(w, "warning: %d of %d runs in %s had a window shorter than the %d s the bounds were set on\n", short, len(runs), path, man.RunSeconds)
		}
	}
	base, cur := series(baseRuns), series(curRuns)
	baseFail, curFail := failShares(baseRuns), failShares(curRuns)
	status := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "base median", "new median", "worse by", "spread", "bound", "verdict")
	for _, wl := range man.Workloads {
		if _, ran := base[wl.Name]; !ran {
			continue
		}
		for _, mm := range man.EndToEnd {
			b, n := base[wl.Name][mm.Name], cur[wl.Name][mm.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			bm, nm := median(b), median(n)
			worse := (nm - bm) / bm
			if mm.Better == "higher" {
				worse = (bm - nm) / bm
			}
			noise := max(spread(b), spread(n))
			verdict := "ok"
			switch {
			case noise > mm.Bound:
				verdict = "unresolved"
			case worse > mm.Bound:
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, mm.Name, bm, nm, 100*worse, 100*noise, 100*mm.Bound, verdict)
		}
		verdict := "ok"
		if curFail[wl.Name] > baseFail[wl.Name] {
			verdict = "REGRESSION"
			status = 1
		}
		fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %8s %8s %5.0f%%  %s\n",
			wl.Name, "fail_share", baseFail[wl.Name], curFail[wl.Name], "", "", 0.0, verdict)
	}
	return status
}
