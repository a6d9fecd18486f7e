package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timeseries"
)

func TestAccumulatorMatchesBatchFit(t *testing.T) {
	g := timeseries.NewSynth(41)
	s := g.Linear(20, 40, 1.5, 0.3, 0.5)
	acc := NewAccumulator(s.Interval.Tb)
	for i, z := range s.Values {
		if err := acc.Add(s.Interval.Tb+int64(i), z); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batch := MustFit(s)
	if !almostEq(snap.Base, batch.Base, 1e-9) || !almostEq(snap.Slope, batch.Slope, 1e-9) {
		t.Fatalf("online %v vs batch %v", snap, batch)
	}
}

func TestAccumulatorTickDiscipline(t *testing.T) {
	acc := NewAccumulator(5)
	if acc.NextTick() != 5 {
		t.Fatalf("NextTick = %d", acc.NextTick())
	}
	if err := acc.Add(6, 1); err == nil {
		t.Fatal("expected out-of-order error")
	}
	if err := acc.Add(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(5, 1); err == nil {
		t.Fatal("expected duplicate-tick error")
	}
	if acc.N() != 1 || acc.Empty() {
		t.Fatalf("N = %d, Empty = %v", acc.N(), acc.Empty())
	}
}

func TestAccumulatorNonFinite(t *testing.T) {
	acc := NewAccumulator(0)
	if err := acc.Add(0, math.NaN()); err == nil {
		t.Fatal("expected ErrNonFinite")
	}
	if err := acc.Add(0, math.Inf(-1)); err == nil {
		t.Fatal("expected ErrNonFinite")
	}
	if !acc.Empty() {
		t.Fatal("failed adds must not change state")
	}
}

func TestAccumulatorEmptySnapshot(t *testing.T) {
	acc := NewAccumulator(0)
	if _, err := acc.Snapshot(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestAccumulatorSinglePoint(t *testing.T) {
	acc := NewAccumulator(9)
	if err := acc.Add(9, 4.25); err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Slope != 0 || snap.Base != 4.25 || snap.Tb != 9 || snap.Te != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestAccumulatorReset(t *testing.T) {
	acc := NewAccumulator(0)
	_ = acc.Add(0, 1)
	_ = acc.Add(1, 2)
	acc.Reset(100)
	if !acc.Empty() || acc.NextTick() != 100 {
		t.Fatalf("after reset: N=%d next=%d", acc.N(), acc.NextTick())
	}
	_ = acc.Add(100, 7)
	snap, _ := acc.Snapshot()
	if snap.Base != 7 {
		t.Fatalf("snapshot after reset = %v", snap)
	}
}

// Property: AdvanceTo must be bit-for-bit interchangeable with the
// one-Add-per-tick zero fill it replaces, from any state (empty, mid-run,
// after negative and negative-zero observations) and for any gap length.
func TestAccumulatorAdvanceToMatchesZeroAdds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(57))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := int64(r.Intn(200) - 100)
		bulk := NewAccumulator(tb)
		loop := NewAccumulator(tb)
		for step := 0; step < 20; step++ {
			if r.Intn(2) == 0 {
				z := r.NormFloat64() * 8
				switch r.Intn(4) {
				case 0:
					z = 0
				case 1:
					z = math.Copysign(0, -1) // negative zero input
				}
				if err := bulk.Add(bulk.NextTick(), z); err != nil {
					return false
				}
				if err := loop.Add(loop.NextTick(), z); err != nil {
					return false
				}
			} else {
				gap := int64(r.Intn(50))
				bulk.AdvanceTo(bulk.NextTick() + gap)
				for i := int64(0); i < gap; i++ {
					if err := loop.Add(loop.NextTick(), 0); err != nil {
						return false
					}
				}
			}
			if *bulk != *loop {
				return false
			}
			if bulk.N() > 0 {
				sb, err1 := bulk.Snapshot()
				sl, err2 := loop.Snapshot()
				if err1 != nil || err2 != nil || sb != sl {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Observe is AdvanceTo then Add, bit for bit, at any gap and for any value
// (negative zero and huge magnitudes included); a tick behind NextTick or a
// non-finite value is refused and leaves the state as it was.
func TestAccumulatorObserveMatchesAdvanceAdd(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	step := NewAccumulator(-7)
	pair := NewAccumulator(-7)
	for i := 0; i < 2000; i++ {
		tick := step.NextTick() + int64(r.Intn(4))
		z := r.NormFloat64() * 8
		switch r.Intn(6) {
		case 0:
			z = math.Copysign(0, -1)
		case 1:
			z = 1e300
		}
		if !step.Observe(tick, z) {
			t.Fatalf("step %d: Observe(%d, %g) refused at next tick %d", i, tick, z, step.NextTick())
		}
		pair.AdvanceTo(tick)
		if err := pair.Add(tick, z); err != nil {
			t.Fatal(err)
		}
		if *step != *pair {
			t.Fatalf("step %d: Observe %+v, AdvanceTo+Add %+v", i, *step, *pair)
		}
	}
	before := *step
	for _, bad := range []struct {
		tick int64
		z    float64
	}{
		{step.NextTick() - 1, 1},
		{step.NextTick(), math.NaN()},
		{step.NextTick() + 3, math.Inf(1)},
		{step.NextTick(), math.Inf(-1)},
	} {
		if step.Observe(bad.tick, bad.z) || *step != before {
			t.Fatalf("Observe(%d, %g) accepted or changed state", bad.tick, bad.z)
		}
	}
}

// AdvanceTo to the current or an earlier tick must be a no-op.
func TestAccumulatorAdvanceToNoOp(t *testing.T) {
	acc := NewAccumulator(10)
	_ = acc.Add(10, 3)
	before := *acc
	acc.AdvanceTo(11) // == NextTick
	acc.AdvanceTo(5)  // before tb
	if *acc != before {
		t.Fatalf("AdvanceTo changed state: %+v vs %+v", *acc, before)
	}
	acc.AdvanceTo(14)
	if acc.N() != 4 || acc.NextTick() != 14 {
		t.Fatalf("after AdvanceTo(14): N=%d next=%d", acc.N(), acc.NextTick())
	}
}

// Property: incremental snapshots at every prefix equal batch fits of the
// prefix series.
func TestAccumulatorPrefixProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(51))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		tb := int64(r.Intn(100) - 50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 4
		}
		full := timeseries.MustNew(tb, vals)
		acc := NewAccumulator(tb)
		for i := 0; i < n; i++ {
			if err := acc.Add(tb+int64(i), vals[i]); err != nil {
				return false
			}
			snap, err := acc.Snapshot()
			if err != nil {
				return false
			}
			prefix, err := full.Slice(tb, tb+int64(i))
			if err != nil {
				return false
			}
			batch := MustFit(prefix)
			if !almostEq(snap.Base, batch.Base, 1e-7) || !almostEq(snap.Slope, batch.Slope, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
