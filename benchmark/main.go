// Command benchmark is the one performance suite of this repository: four
// workloads driven against real streamd / regcube-router processes for the
// end-to-end metrics, and a traced in-process pass over the same seeded
// input for every layer's own numbers. BENCHMARK.json at the repository
// root names the workloads, the metrics and their bounds; README.md in
// this directory says why each exists and how to read the output.
//
//	bash benchmark/run.sh -workload firehose            # one workload, end-to-end metrics
//	bash benchmark/run.sh -workload cube_heavy -trace 1 # the same plus the traced pass
//	bash benchmark/run.sh -reps 5 -out a.json           # all workloads, seeds 2002..2006
//	bash benchmark/run.sh -compare a.json b.json        # b against a, per metric and workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// manifest is the part of BENCHMARK.json the suite itself reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the repository root:
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func main() {
	os.Exit(run())
}

// usage reports a problem that stops the run before any measurement.
func usage(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func run() int {
	workloadName := flag.String("workload", "all", "workload to run: firehose, cube_heavy, durable_serve, cluster_serve, or all")
	seed := flag.Int64("seed", 2002, "workload seed; the programs under test only ever see the generated records")
	seconds := flag.Float64("seconds", 0, "length of the measured window; the benchmark driver passes run_seconds of BENCHMARK.json, which is also the default")
	trace := flag.Int("trace", 0, "1 adds the traced in-process pass and reports the per-layer metrics")
	reps := flag.Int("reps", 1, "runs per workload, on seeds seed, seed+1, …; reports median and quartiles")
	out := flag.String("out", "", "write the full results (every rep, host block, checks) to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: base.json new.json")
	smoke := flag.Bool("smoke", false, "tiny sizes, programs under test run in-process: exercises every code path in seconds")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return usage(err)
	}
	man, err := readManifest(root)
	if err != nil {
		return usage(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return usage(errors.New("-compare needs two result files: base.json new.json"))
		}
		return compareFiles(man, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	// The window belongs to the benchmark, not to the caller: the flag is
	// there because the driver's command line carries it. A shorter window
	// is for trying things out — it misses the sample floors the bounds were
	// set on, and -compare refuses to set its results against a full run's.
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	if !*smoke && *seconds < float64(man.RunSeconds) {
		fmt.Fprintf(os.Stderr, "benchmark: warning: a %gs window is shorter than run_seconds (%d): the paced workloads fall below 200 units and 2000 queries, and the results are not comparable with a full run's\n",
			*seconds, man.RunSeconds)
	}

	var ws []workload
	if *workloadName == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return usage(err)
		}
		ws = []workload{w}
	}

	// All state of the run — built binaries aside — lives in one temporary
	// directory inside the checkout, removed on every exit path.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return usage(err)
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return usage(err)
	}
	live.Lock()
	live.root = tmp
	live.Unlock()
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	var l launcher
	if *smoke {
		for i := range ws {
			ws[i] = ws[i].smoke()
		}
		*seconds = min(*seconds, 1)
	} else {
		l.binDir = filepath.Join(build, "bin")
		if err := buildSUT(root, l.binDir); err != nil {
			return usage(err)
		}
	}

	var all []*result
	status := 0
	for _, w := range ws {
		for rep := 0; rep < *reps; rep++ {
			res, err := measure(w, *seed+int64(rep), *seconds, l, tmp, *trace != 0, *smoke, filepath.Join(build, "traces"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			all = append(all, res)
			printResult(os.Stdout, man, res, *trace != 0)
			if !res.Correct {
				status = 1
			}
		}
	}
	if *reps > 1 {
		printSummary(os.Stdout, man, all)
	}
	if *out != "" {
		if err := writeResults(*out, all); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}
