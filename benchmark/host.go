package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo says where and on what a result was measured, so numbers from
// different boxes or commits are never compared by accident.
type hostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	// Busy flags a box that was already loaded before the workload began;
	// its timings are suspect.
	Busy bool `json:"loadavg_above_0.5"`
}

// readHost gathers the host block; it is read before each workload, so
// the load average is the one the workload started under.
func readHost() hostInfo {
	h := hostInfo{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// A checkout that is not a git repository has no commit to name, and
	// git must not go looking for one in the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // a malformed file reads as an idle box
		}
	}
	h.Busy = h.LoadAvg1 > 0.5
	return h
}
