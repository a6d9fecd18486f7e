// Command benchjson converts `go test -bench` text output into a JSON
// benchmark record and merges it into a trajectory file (BENCH_PR2.json and
// successors), so performance PRs carry their own before/after evidence.
//
// Usage:
//
//	go test -run '^$' -bench 'Fig8|Fig9|Sharded|CloseUnit' -benchmem . |
//	    go run ./cmd/benchjson -o BENCH_PR2.json -label baseline
//
// Each run is stored under its -label; re-running with the same label
// replaces that section and leaves the others intact, so a perf PR captures
// a "baseline" section before the change and an optimized section after it,
// in one file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metrics is one benchmark's parsed per-op measurements. NsPerOp and the
// -benchmem pair are first-class; everything else (cells/op, peakMB/op,
// units/op, ...) lands in Extra keyed by its unit.
type Metrics struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsPerO float64            `json:"allocs_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Section is one labeled capture: the environment line plus every parsed
// benchmark, keyed by full benchmark name (including sub-bench and GOMAXPROCS
// suffix).
type Section struct {
	CapturedAt string             `json:"captured_at"`
	GoVersion  string             `json:"go_version,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benches    map[string]Metrics `json:"benches"`
	// Speedups holds before/after ratios computed with -ratio: for each
	// bench whose name contains the OLD fragment and has a NEW-fragment
	// counterpart, old ns/op divided by new ns/op, keyed by the
	// counterpart's name.
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// speedups pairs each bench whose name contains old with the bench named
// by swapping old for new, and returns ns/op ratios (old/new — >1 means
// the new path is faster).
func speedups(benches map[string]Metrics, old, new string) map[string]float64 {
	out := make(map[string]float64)
	for name, m := range benches {
		if !strings.Contains(name, old) {
			continue
		}
		counter := strings.Replace(name, old, new, 1)
		cm, ok := benches[counter]
		if !ok || cm.NsPerOp == 0 {
			continue
		}
		out[counter] = m.NsPerOp / cm.NsPerOp
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func main() {
	out := flag.String("o", "", "JSON file to merge into (required)")
	label := flag.String("label", "", "section label, e.g. baseline or pr2 (required)")
	ratio := flag.String("ratio", "", "OLD=NEW name fragments; record ns/op speedups between paired benches (e.g. /text/=/binary/)")
	flag.Parse()
	if *out == "" || *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o and -label are required")
		os.Exit(2)
	}
	var ratioOld, ratioNew string
	if *ratio != "" {
		var ok bool
		ratioOld, ratioNew, ok = strings.Cut(*ratio, "=")
		if !ok || ratioOld == "" || ratioNew == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -ratio wants OLD=NEW name fragments")
			os.Exit(2)
		}
	}

	sec, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(sec.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if ratioOld != "" {
		sec.Speedups = speedups(sec.Benches, ratioOld, ratioNew)
	}

	file := make(map[string]*Section)
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: existing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	file[*label] = sec

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(sec.Benches))
	for n := range sec.Benches {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("benchjson: wrote %d benches to %s section %q\n", len(names), *out, *label)
	if len(sec.Speedups) > 0 {
		pairs := make([]string, 0, len(sec.Speedups))
		for n := range sec.Speedups {
			pairs = append(pairs, n)
		}
		sort.Strings(pairs)
		for _, n := range pairs {
			fmt.Printf("benchjson: speedup %s: %.2fx\n", n, sec.Speedups[n])
		}
	}
}

// parse reads `go test -bench` output: env header lines, then one line per
// benchmark of the form
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   1 allocs/op   5 cells/op
func parse(sc *bufio.Scanner) (*Section, error) {
	sec := &Section{
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		Benches:    make(map[string]Metrics),
	}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			sec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "pkg:"):
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		m := Metrics{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				m.NsPerOp = val
			case "B/op":
				m.BytesPerOp = val
			case "allocs/op":
				m.AllocsPerO = val
			default:
				if m.Extra == nil {
					m.Extra = make(map[string]float64)
				}
				m.Extra[unit] = val
			}
		}
		sec.Benches[fields[0]] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sec.GoVersion = runtime.Version()
	return sec, nil
}
