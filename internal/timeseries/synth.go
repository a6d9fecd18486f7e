package timeseries

import "math/rand"

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
