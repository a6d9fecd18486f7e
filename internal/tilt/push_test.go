package tilt

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/regression"
)

// refFrame is the mutable tilt register the frame was before its records
// became persistent: levels whose slots a push changes in place, cut into
// a record by state. FuzzUnitFramePush holds UnitFrameState.Push to it.
type refFrame struct {
	levels    []refLevel
	unitTicks int64
	nextTb    int64
	pushed    int64
}

type refLevel struct {
	cfg   Level
	slots []Slot // completed units, oldest first, len ≤ cfg.Slots
	next  int64  // index of the next unit to complete
}

func newRefFrame(chain []Level) *refFrame {
	f := &refFrame{}
	for _, lv := range chain {
		f.levels = append(f.levels, refLevel{cfg: lv})
	}
	return f
}

// refComplete registers a finished unit ISB at level i and cascades
// promotion when it fills a unit of level i+1.
func refComplete(levels []refLevel, i int, isb regression.ISB) {
	ls := &levels[i]
	ls.slots = append(ls.slots, Slot{Unit: ls.next, ISB: isb})
	ls.next++
	if i+1 < len(levels) {
		if mult := levels[i+1].cfg.Multiple; ls.next%int64(mult) == 0 {
			parent, err := AggregateLast(ls.cfg.Name, ls.slots, mult)
			if err != nil {
				panic(fmt.Sprintf("reference promotion failed: %v", err))
			}
			refComplete(levels, i+1, parent)
		}
	}
	if over := len(ls.slots) - ls.cfg.Slots; over > 0 {
		ls.slots = append(ls.slots[:0], ls.slots[over:]...)
	}
}

func (f *refFrame) push(isb regression.ISB) error {
	n := isb.N()
	if n < 1 || !isb.IsFinite() {
		return fmt.Errorf("%w: bad unit", ErrConfig)
	}
	if f.pushed == 0 {
		f.unitTicks, f.nextTb = n, isb.Tb
	}
	if n != f.unitTicks || isb.Tb != f.nextTb {
		return fmt.Errorf("%w: misplaced unit", ErrConfig)
	}
	refComplete(f.levels, 0, isb)
	f.nextTb = isb.Te + 1
	f.pushed++
	return nil
}

// state cuts the register into a fresh record; a level without slots has
// nil.
func (f *refFrame) state() UnitFrameState {
	st := UnitFrameState{UnitTicks: f.unitTicks, NextTb: f.nextTb, Pushed: f.pushed}
	for _, ls := range f.levels {
		rec := LevelStateRec{Next: ls.next}
		if len(ls.slots) > 0 {
			rec.Slots = append([]Slot(nil), ls.slots...)
		}
		st.Levels = append(st.Levels, rec)
	}
	return st
}

// sameBits reports whether two records are equal field by field, floats
// compared by their bits, nil and empty slot lists alike.
func sameBits(a, b UnitFrameState) bool {
	if a.UnitTicks != b.UnitTicks || a.NextTb != b.NextTb || a.Pushed != b.Pushed || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		x, y := a.Levels[i], b.Levels[i]
		if x.Next != y.Next || len(x.Slots) != len(y.Slots) {
			return false
		}
		for j := range x.Slots {
			s, t := x.Slots[j], y.Slots[j]
			if s.Unit != t.Unit || s.ISB.Tb != t.ISB.Tb || s.ISB.Te != t.ISB.Te ||
				math.Float64bits(s.ISB.Base) != math.Float64bits(t.ISB.Base) ||
				math.Float64bits(s.ISB.Slope) != math.Float64bits(t.ISB.Slope) {
				return false
			}
		}
	}
	return true
}

// fuzzChain reads a valid chain of 1–4 levels off the front of data: a
// level count, then per level a multiple (2–5 above the finest) and a
// retention of at least the next level's multiple.
func fuzzChain(data []byte) ([]Level, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	chain := make([]Level, 1+next()%4)
	for i := range chain {
		chain[i] = Level{Name: fmt.Sprintf("l%d", i), Multiple: 1}
		if i > 0 {
			chain[i].Multiple = 2 + next()%4
		}
	}
	for i := range chain {
		need := 1
		if i+1 < len(chain) {
			need = chain[i+1].Multiple
		}
		chain[i].Slots = need + next()%4
	}
	return chain, data
}

// FuzzUnitFramePush pushes a sequence of units, zero regressions among
// them, through UnitFrameState.Push and through the mutable reference
// register: after every push the successor equals the reference's record
// bit for bit and is a state of the chain, and no record handed out before
// has changed.
func FuzzUnitFramePush(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 1, 0, 2, 1, 1, 0, 3, 1, 2, 0, 0, 7, 9, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(append([]byte{3, 0, 0, 0, 0, 0, 0, 0, 3}, make([]byte, 120)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, data := fuzzChain(data)
		if _, err := NewUnitFrame(chain); err != nil {
			t.Fatalf("fuzzChain built an invalid chain %+v: %v", chain, err)
		}
		ticks := int64(1)
		if len(data) > 0 {
			ticks += int64(data[0] % 3)
			data = data[1:]
		}
		if len(data) > 256 {
			data = data[:256]
		}
		ref := newRefFrame(chain)
		var st UnitFrameState
		var records, copies []UnitFrameState
		for u, b := range data {
			isb := regression.ISB{Tb: int64(u) * ticks, Te: int64(u)*ticks + ticks - 1}
			if b != 0 {
				isb.Base, isb.Slope = float64(b)/7, float64(int(b)-128)/13
			}
			next, err := st.Push(chain, isb, nil)
			if err != nil {
				t.Fatalf("push %d: %v", u, err)
			}
			if err := ref.push(isb); err != nil {
				t.Fatalf("reference push %d: %v", u, err)
			}
			if want := ref.state(); !sameBits(next, want) {
				t.Fatalf("push %d over %+v:\n got %+v\nwant %+v", u, chain, next, want)
			}
			if err := CheckState(chain, &next); err != nil {
				t.Fatalf("push %d: successor fails CheckState: %v", u, err)
			}
			if n := len(records); n > 0 && !reflect.DeepEqual(records[n-1], copies[n-1]) {
				t.Fatalf("push %d changed the record before it", u)
			}
			records, copies = append(records, next), append(copies, ref.state())
			st = next
		}
		for i := range records {
			if !reflect.DeepEqual(records[i], copies[i]) {
				t.Fatalf("record %d changed after it was returned", i)
			}
		}
	})
}

// TestPushRefusesWithoutWriting holds a refused push to its record: the
// successor is not made and st reads as before.
func TestPushRefusesWithoutWriting(t *testing.T) {
	chain := unitLevels()
	var st UnitFrameState
	for u := int64(0); u < 9; u++ {
		next, err := st.Push(chain, regression.ISB{Tb: u * 5, Te: u*5 + 4, Base: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st = next
	}
	before := deepCopyState(st)
	for _, isb := range []regression.ISB{
		{Tb: 45, Te: 48, Base: 1},           // short unit
		{Tb: 50, Te: 54, Base: 1},           // gap
		{Tb: 45, Te: 49, Base: math.Inf(1)}, // non-finite
		{Tb: 45, Te: 44},                    // empty
	} {
		if _, err := st.Push(chain, isb, nil); err == nil {
			t.Fatalf("push of %+v accepted", isb)
		}
	}
	if _, err := st.Push(chain[:2], regression.ISB{Tb: 45, Te: 49}, nil); err == nil {
		t.Fatal("push over a chain of another length accepted")
	}
	if !reflect.DeepEqual(st, before) {
		t.Fatal("a refused push changed the record")
	}
}
