package main

import (
	"fmt"
	"time"

	"repro/internal/cube"
	"repro/internal/mlr"
	"repro/internal/node"
	"repro/internal/wire"
)

// costPoint is one run of the sweep: a spec, an input size and a shard
// count, the time the in-process engine took over it, and what the fitted
// model says it should have taken.
type costPoint struct {
	Spec         string  `json:"spec"`
	Cells        int     `json:"cells"`
	TicksPerUnit int     `json:"ticks_per_unit"`
	Shards       int     `json:"shards"`
	Units        int     `json:"units"`
	Cuboids      int     `json:"cuboids"`
	Records      int64   `json:"records"`
	Ns           float64 `json:"ns"`
	FittedNs     float64 `json:"fitted_ns"`
	ResidualNs   float64 `json:"residual_ns"`
}

// costModel is the fit time ≈ a·records + b·cells·cuboids + c·units +
// d·shards, with the per-unit terms counted once per closed unit: a is the
// per-record ingest cost, b the cubing cost per m-cell and cuboid, c the
// fixed cost of closing a unit, d what each extra shard adds to a unit's
// barrier (negative when the parallel close more than pays for it).
type costModel struct {
	NsPerRec        float64     `json:"ns_per_rec"`
	NsPerCellCuboid float64     `json:"ns_per_cell_cuboid"`
	NsPerUnit       float64     `json:"ns_per_unit"`
	NsPerShard      float64     `json:"ns_per_shard"`
	R2              float64     `json:"r2"`
	Points          []costPoint `json:"points"`
}

// sweepSpecs span the cuboid counts a D/L/C spec can give (4, 8, 9, 27).
var sweepSpecs = []string{"D2L2C8", "D3L2C4", "D2L3C4", "D3L3C4"}

// fitted keeps the model per seed and sweep size. The sweep does not
// depend on the workload, so a run over several workloads fits once and
// every workload reports the same coefficients, not four noisy copies.
var fitted = map[modelKey]*costModel{}

type modelKey struct {
	seed  int64
	smoke bool
}

// fitCostModel sweeps records per unit × active cells × cuboids × shards
// over seeded inputs, times the stream engine on each point under a span,
// and fits the four coefficients with internal/mlr. The model.point spans
// go to the tracer of the first workload that asks for a seed's model.
func fitCostModel(t *tracer, seed int64, smoke bool) (*costModel, error) {
	key := modelKey{seed, smoke}
	if m := fitted[key]; m != nil {
		return m, nil
	}
	cellCounts, tickCounts, unitCounts := []int{512, 2048}, []int{8, 32}, []int{2, 6}
	if smoke {
		cellCounts, tickCounts, unitCounts = []int{32, 64}, []int{4, 8}, []int{2, 3}
	}
	var points []costPoint
	for _, spec := range sweepSpecs {
		for ci, cells := range cellCounts {
			for ti, ticks := range tickCounts {
				in, err := newInput(spec, cells, ticks, 0.1, seed)
				if err != nil {
					return nil, err
				}
				// Unit counts alternate across the grid so the per-unit
				// terms are not one constant column.
				units := unitCounts[(ci+ti)%len(unitCounts)]
				for _, shards := range []int{1, 2, 4} {
					p := costPoint{Spec: spec, Cells: in.cells, TicksPerUnit: ticks, Shards: shards, Units: units,
						Cuboids: cube.NewLattice(in.schema).Size(), Records: int64(units * in.unitRecords())}
					// The faster of two runs: the sweep wants each point's
					// cost, not the scheduler's mood.
					for try := 0; try < 2; try++ {
						ns, err := timeEngine(t, spec, in, shards, units)
						if err != nil {
							return nil, err
						}
						if try == 0 || ns < p.Ns {
							p.Ns = ns
						}
					}
					points = append(points, p)
				}
			}
		}
	}

	// Regressors are scaled to comparable magnitudes before the QR fit;
	// the coefficients are scaled back afterwards.
	scale := [4]float64{1e6, 1e5, 1, 1}
	regressors := func(p costPoint) []float64 {
		return []float64{
			float64(p.Records) / scale[0],
			float64(p.Cells*p.Cuboids*p.Units) / scale[1],
			float64(p.Units) / scale[2],
			float64(p.Shards*p.Units) / scale[3],
		}
	}
	basis := mlr.Basis{Name: "cost", Dim: 4, Map: func(vars, dst []float64) { copy(dst, vars) }}
	vars, ys := make([][]float64, len(points)), make([]float64, len(points))
	for i, p := range points {
		vars[i], ys[i] = regressors(p), p.Ns
	}
	fit, err := mlr.FitRaw(basis, vars, ys)
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	for i := range points {
		points[i].FittedNs = fit.Predict(vars[i])
		points[i].ResidualNs = points[i].Ns - points[i].FittedNs
	}
	fitted[key] = &costModel{
		NsPerRec: fit.Coef[0] / scale[0], NsPerCellCuboid: fit.Coef[1] / scale[1],
		NsPerUnit: fit.Coef[2] / scale[2], NsPerShard: fit.Coef[3] / scale[3],
		R2: fit.R2, Points: points,
	}
	return fitted[key], nil
}

// timeEngine ingests and closes the given number of units of in on a fresh
// engine, built as streamd builds it for the shard count, and returns the
// nanoseconds it took.
func timeEngine(t *tracer, spec string, in *input, shards, units int) (float64, error) {
	a, err := node.EngineConfig{Spec: spec, TicksPerUnit: in.ticksPerUnit, Threshold: 1, Alg: "mo", Shards: shards}.Build()
	if err != nil {
		return 0, err
	}
	defer a.Close()
	cuts := in.cuts(false)
	var b wire.Batch
	t0 := time.Now()
	id := t.begin("model.point", -1)
	for u := int64(0); u < int64(units) && err == nil; u++ {
		for i := 0; i+1 < len(cuts) && err == nil; i++ {
			in.frame(&b, u, cuts[i], cuts[i+1])
			_, err = a.IngestBatch(&b)
		}
		if err == nil {
			_, err = a.AdvanceTo(u + 1)
		}
	}
	t.end(id)
	return float64(time.Since(t0)), err
}
