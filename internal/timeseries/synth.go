package timeseries

import (
	"math"
	"math/rand"
)

// Synth generates synthetic series for tests, examples, and the benchmark
// workload generator. All generation is driven by an explicit *rand.Rand so
// every experiment is reproducible from a seed.
type Synth struct {
	rng *rand.Rand
}

// NewSynth returns a generator seeded deterministically.
func NewSynth(seed int64) *Synth {
	return &Synth{rng: rand.New(rand.NewSource(seed))}
}

// Linear produces base + slope·t + N(0, noise) over [tb, tb+n-1].
// t in the formula is the absolute tick, matching the paper's z(t) model.
// Each product is rounded before it is summed (no fused multiply-add), so
// a seed gives the same series on every CPU.
func (g *Synth) Linear(tb int64, n int, base, slope, noise float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		t := float64(tb + int64(i))
		vals[i] = base + float64(slope*t) + float64(g.rng.NormFloat64()*noise)
	}
	return MustNew(tb, vals)
}

// Seasonal produces a linear trend plus a sinusoidal component with the
// given period and amplitude; used by domain examples (daily load curves).
func (g *Synth) Seasonal(tb int64, n int, base, slope, amplitude float64, period int, noise float64) *Series {
	if period <= 0 {
		period = 1
	}
	vals := make([]float64, n)
	for i := range vals {
		t := float64(tb + int64(i))
		vals[i] = base + float64(slope*t) + float64(amplitude*math.Sin(2*math.Pi*t/float64(period))) + float64(g.rng.NormFloat64()*noise)
	}
	return MustNew(tb, vals)
}

// RandomWalk produces a bounded random walk starting at base with the given
// step scale; useful for stress-testing regression robustness.
func (g *Synth) RandomWalk(tb int64, n int, base, step float64) *Series {
	vals := make([]float64, n)
	cur := base
	for i := range vals {
		cur += (g.rng.Float64()*2 - 1) * step
		vals[i] = cur
	}
	return MustNew(tb, vals)
}

// Spike produces a flat series with a level shift of the given magnitude at
// tick at (absolute); used to exercise exception detection.
func (g *Synth) Spike(tb int64, n int, base, magnitude float64, at int64, noise float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		t := tb + int64(i)
		v := base + g.rng.NormFloat64()*noise
		if t >= at {
			v += magnitude
		}
		vals[i] = v
	}
	return MustNew(tb, vals)
}

// Constant produces a series with every value equal to c.
func Constant(tb int64, n int, c float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = c
	}
	return MustNew(tb, vals)
}

// Ramp produces the deterministic series base + slope·t (no noise).
func Ramp(tb int64, n int, base, slope float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = base + slope*float64(tb+int64(i))
	}
	return MustNew(tb, vals)
}
