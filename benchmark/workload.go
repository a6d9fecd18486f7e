package main

import (
	"fmt"
	"time"
)

// workload fixes one system under test and the load it gets. The sizes
// are calibrated for a 2-core box and a 20 s window; README.md gives the
// reason for each.
type workload struct {
	name string
	// SUT: nodes > 1 puts a regcube-router (scatter tier + coordinator)
	// in front of that many streamd processes.
	spec         string
	ticksPerUnit int
	shards       int
	nodes        int
	tilt         string
	alertCrit    float64
	// durable adds the WAL (interval fsync) and the per-unit checkpoint,
	// and makes the run end with a kill -9 and a full-WAL restart.
	durable bool

	// Load: cells active m-cells (0 = the whole m-layer) report every
	// tick; slopeSigma scales their slopes against the threshold of 1.
	// warmUnits are ingested at full rate during set-up. tickEvery > 0
	// paces the window open-loop, one tick per period; 0 writes as fast as
	// the SUT accepts. queryEvery is the open-loop query period; on a paced
	// workload it must not divide the unit period, or every unit's close
	// would meet the query schedule at the same phase and unit_visible
	// would be quantized to it. probe replaces the query mix by the
	// /healthz probe: the closed-loop workloads exist to load the ingest
	// path and the unit close, and carry only what it takes to see a unit
	// become visible.
	cells      int
	slopeSigma float64
	warmUnits  int
	tickEvery  time.Duration
	queryEvery time.Duration
	probe      bool

	// minCloseShare and maxCloseShare bound stream.close_share where the
	// workload exists to load, or to spare, the unit close (0 = no limit).
	// The traced pass checks them at full size: a resize that leaves the
	// range fails the run rather than quietly measuring something else.
	minCloseShare, maxCloseShare float64
}

// workloads is the fixed suite, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "firehose", spec: "D2L2C4", ticksPerUnit: 512, shards: 2, nodes: 1,
		slopeSigma: 0.1, warmUnits: 48, queryEvery: 5 * time.Millisecond, probe: true,
		maxCloseShare: 0.10,
	},
	{
		name: "cube_heavy", spec: "D3L3C4", ticksPerUnit: 10, shards: 2, nodes: 1,
		cells: 5000, slopeSigma: 1, warmUnits: 4, queryEvery: 5 * time.Millisecond, probe: true,
		minCloseShare: 0.80,
	},
	{
		name: "durable_serve", spec: "D2L2C16", ticksPerUnit: 10, shards: 2, nodes: 1,
		tilt: "calendar", alertCrit: 2, durable: true,
		cells: 1000, slopeSigma: 0.1, warmUnits: 40, tickEvery: 7500 * time.Microsecond, queryEvery: 4900 * time.Microsecond,
	},
	{
		name: "cluster_serve", spec: "D2L2C8", ticksPerUnit: 10, shards: 1, nodes: 4,
		cells: 2048, slopeSigma: 0.1, warmUnits: 120, tickEvery: 10 * time.Millisecond, queryEvery: 7300 * time.Microsecond,
	},
}

// workloadByName finds a suite entry.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a few hundred cells and short periods, so
// the in-process smoke run covers every code path in about a second.
func (w workload) smoke() workload {
	if w.ticksPerUnit > 16 {
		w.ticksPerUnit = 16
	}
	if w.cells == 0 || w.cells > 200 {
		w.cells = 200
	}
	w.warmUnits = 3
	if w.tickEvery > 0 {
		w.tickEvery = 2 * time.Millisecond
	}
	w.queryEvery = 4 * time.Millisecond
	return w
}

// paced reports whether the window is open-loop.
func (w workload) paced() bool { return w.tickEvery > 0 }
