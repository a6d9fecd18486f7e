// Package gen is the synthetic workload generator for the performance
// study (paper §5): datasets named like D3L3C10T100K, meaning 3 dimensions,
// 3 levels per dimension from the m-layer to the o-layer inclusive, node
// fan-out (cardinality) 10, and 100K merged m-layer tuples.
//
// The paper used a generator "similar in spirit to the IBM data generator";
// that tool is not available, so this package substitutes a deterministic
// equivalent: uniform member draws over fan-out hierarchies and Gaussian
// regression slopes, with optional injected trend events. The evaluation
// only depends on hierarchy shape, tuple counts, and the slope
// distribution's quantiles (which the threshold calibration consumes), all
// of which are preserved. See DESIGN.md §2 for the substitution note.
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/regression"
)

// ErrSpec is returned for malformed dataset specifications.
var ErrSpec = errors.New("gen: invalid dataset spec")

// Spec is the D/L/C/T dataset shape.
type Spec struct {
	Dims   int // number of standard dimensions (D)
	Levels int // levels per dimension from m-layer to o-layer inclusive (L)
	Fanout int // children per hierarchy node (C)
	Tuples int // m-layer tuples (T)
}

// ParseSpec parses the paper's convention, e.g. "D3L3C10T100K". The T
// component accepts a K (thousand) or M (million) suffix.
func ParseSpec(s string) (Spec, error) {
	orig := s
	var sp Spec
	up := strings.ToUpper(strings.TrimSpace(s))
	rest := up
	grab := func(prefix byte) (int, string, error) {
		if len(rest) == 0 || rest[0] != prefix {
			return 0, rest, fmt.Errorf("%w: %q (expected %c component)", ErrSpec, orig, prefix)
		}
		i := 1
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 1 {
			return 0, rest, fmt.Errorf("%w: %q (no digits after %c)", ErrSpec, orig, prefix)
		}
		v, err := strconv.Atoi(rest[1:i])
		if err != nil {
			return 0, rest, fmt.Errorf("%w: %q: %v", ErrSpec, orig, err)
		}
		return v, rest[i:], nil
	}
	var err error
	if sp.Dims, rest, err = grab('D'); err != nil {
		return Spec{}, err
	}
	if sp.Levels, rest, err = grab('L'); err != nil {
		return Spec{}, err
	}
	if sp.Fanout, rest, err = grab('C'); err != nil {
		return Spec{}, err
	}
	if sp.Tuples, rest, err = grab('T'); err != nil {
		return Spec{}, err
	}
	switch rest {
	case "":
	case "K":
		sp.Tuples *= 1000
	case "M":
		sp.Tuples *= 1000000
	default:
		return Spec{}, fmt.Errorf("%w: %q (trailing %q)", ErrSpec, orig, rest)
	}
	return sp, sp.Validate()
}

// Validate checks the spec's ranges.
func (sp Spec) Validate() error {
	if sp.Dims < 1 || sp.Dims > cube.MaxDims {
		return fmt.Errorf("%w: D=%d outside [1,%d]", ErrSpec, sp.Dims, cube.MaxDims)
	}
	if sp.Levels < 1 {
		return fmt.Errorf("%w: L=%d", ErrSpec, sp.Levels)
	}
	if sp.Fanout < 1 {
		return fmt.Errorf("%w: C=%d", ErrSpec, sp.Fanout)
	}
	if sp.Tuples < 1 {
		return fmt.Errorf("%w: T=%d", ErrSpec, sp.Tuples)
	}
	return nil
}

// String renders the spec in the paper's convention.
func (sp Spec) String() string {
	t := fmt.Sprintf("T%d", sp.Tuples)
	if sp.Tuples%1000000 == 0 {
		t = fmt.Sprintf("T%dM", sp.Tuples/1000000)
	} else if sp.Tuples%1000 == 0 {
		t = fmt.Sprintf("T%dK", sp.Tuples/1000)
	}
	return fmt.Sprintf("D%dL%dC%d%s", sp.Dims, sp.Levels, sp.Fanout, t)
}

// StreamSchema builds the streaming schema the spec's D/L/C shape implies:
// one fanout hierarchy per dimension, the m-layer at the leaf level and
// the o-layer at level 1. streamd and regcube replay share it, so a WAL
// recorded under one command replays under the other.
func (sp Spec) StreamSchema() (*cube.Schema, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	dims := make([]cube.Dimension, sp.Dims)
	for d := 0; d < sp.Dims; d++ {
		name := fmt.Sprintf("D%d", d)
		h, err := cube.NewFanoutHierarchy(name, sp.Fanout, sp.Levels)
		if err != nil {
			return nil, err
		}
		dims[d] = cube.Dimension{Name: name, Hierarchy: h, MLevel: sp.Levels, OLevel: 1}
	}
	return cube.NewSchema(dims...)
}

// Config controls generation.
type Config struct {
	Spec Spec
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// Ticks is the regression interval length per tuple measure
	// (default 10, i.e. ISBs over [0,9]).
	Ticks int
	// SlopeSigma is the Gaussian sigma of ordinary tuple slopes
	// (default 1.0).
	SlopeSigma float64
	// EventRate is the fraction of tuples carrying an injected trend
	// event with magnified slope (default 0.02).
	EventRate float64
	// EventMagnitude multiplies SlopeSigma for event tuples (default 20).
	EventMagnitude float64
	// Skew, when positive, draws dimension members from a Zipf
	// distribution with exponent 1+Skew instead of uniformly — hot cells
	// like real measurement workloads, increasing H-tree prefix sharing.
	Skew float64
}

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 10
	}
	if c.SlopeSigma <= 0 {
		c.SlopeSigma = 1
	}
	if c.EventRate < 0 {
		c.EventRate = 0
	} else if c.EventRate == 0 {
		c.EventRate = 0.02
	}
	if c.EventMagnitude <= 0 {
		c.EventMagnitude = 20
	}
	return c
}

// Dataset is a generated workload: the schema (o-layer at level 1 per the
// benchmark convention) and the m-layer inputs.
type Dataset struct {
	Spec   Spec
	Schema *cube.Schema
	Inputs []core.Input
}

// Generate builds a dataset from the config.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	sp := cfg.Spec

	dims := make([]cube.Dimension, sp.Dims)
	for d := 0; d < sp.Dims; d++ {
		name := fmt.Sprintf("D%d", d)
		h, err := cube.NewFanoutHierarchy(name, sp.Fanout, sp.Levels)
		if err != nil {
			return nil, err
		}
		dims[d] = cube.Dimension{Name: name, Hierarchy: h, MLevel: sp.Levels, OLevel: 1}
	}
	schema, err := cube.NewSchema(dims...)
	if err != nil {
		return nil, err
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	card := dims[0].Hierarchy.Cardinality(sp.Levels)
	var zipf *rand.Zipf
	if cfg.Skew > 0 && card > 1 {
		zipf = rand.NewZipf(r, 1+cfg.Skew, 1, uint64(card-1))
	}
	draw := func() int32 {
		if zipf != nil {
			return int32(zipf.Uint64())
		}
		return int32(r.Intn(card))
	}
	inputs := make([]core.Input, sp.Tuples)
	te := int64(cfg.Ticks - 1)
	for i := range inputs {
		members := make([]int32, sp.Dims)
		for d := range members {
			members[d] = draw()
		}
		slope := r.NormFloat64() * cfg.SlopeSigma
		if r.Float64() < cfg.EventRate {
			slope *= cfg.EventMagnitude
		}
		inputs[i] = core.Input{
			Members: members,
			Measure: regression.ISB{Tb: 0, Te: te, Base: math.Abs(r.NormFloat64()) * 5, Slope: slope},
		}
	}
	return &Dataset{Spec: sp, Schema: schema, Inputs: inputs}, nil
}

// Subset returns a dataset over the first n tuples — the Figure 9
// convention ("data sets with varied sizes are appropriate subsets of the
// same 100K data set").
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n < 1 || n > len(d.Inputs) {
		return nil, fmt.Errorf("%w: subset %d of %d", ErrSpec, n, len(d.Inputs))
	}
	sp := d.Spec
	sp.Tuples = n
	return &Dataset{Spec: sp, Schema: d.Schema, Inputs: d.Inputs[:n]}, nil
}

// CalibrateThreshold computes the slope-magnitude threshold at which the
// given fraction of all aggregated cells (across every cuboid between the
// critical layers) is exceptional — how the Figure 8 sweep's x-axis
// ("Exception (in %)") is realized.
func (d *Dataset) CalibrateThreshold(rate float64) float64 {
	return thresholdFromSlopes(d.allCellSlopes(), rate)
}

// CalibrateThresholds computes thresholds for several target rates from a
// single pass over the cell-slope distribution (the Figure 8 sweep).
func (d *Dataset) CalibrateThresholds(rates []float64) []float64 {
	slopes := d.allCellSlopes()
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = thresholdFromSlopes(slopes, r)
	}
	return out
}

func thresholdFromSlopes(slopes []float64, rate float64) float64 {
	if len(slopes) == 0 {
		return math.Inf(1)
	}
	if rate <= 0 {
		return slopes[0] + 1 // above the max: nothing exceptional
	}
	if rate >= 1 {
		return 0 // everything exceptional
	}
	k := int(math.Round(rate * float64(len(slopes))))
	if k < 1 {
		k = 1
	}
	if k > len(slopes) {
		k = len(slopes)
	}
	return slopes[k-1]
}

// ExceptionRateAt reports the fraction of aggregated cells exceptional at
// a given threshold (the inverse of CalibrateThreshold, for verification).
func (d *Dataset) ExceptionRateAt(threshold float64) float64 {
	slopes := d.allCellSlopes()
	if len(slopes) == 0 {
		return 0
	}
	n := sort.Search(len(slopes), func(i int) bool { return slopes[i] < threshold })
	return float64(n) / float64(len(slopes))
}

// allCellSlopes returns |slope| of every cell of every cuboid between the
// layers, sorted descending.
func (d *Dataset) allCellSlopes() []float64 {
	lattice := cube.NewLattice(d.Schema)
	m := d.Schema.MLayer()
	var out []float64
	for _, c := range lattice.Cuboids() {
		agg := make(map[cube.CellKey]float64)
		for _, in := range d.Inputs {
			var members [cube.MaxDims]int32
			copy(members[:], in.Members)
			key, err := cube.RollUpKey(d.Schema, cube.CellKey{Cuboid: m, Members: members}, c)
			if err != nil {
				continue
			}
			agg[key] += in.Measure.Slope
		}
		for _, s := range agg {
			out = append(out, math.Abs(s))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
