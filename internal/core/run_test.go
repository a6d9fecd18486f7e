package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
)

// keyed is a run element: key orders it, tag tells equal keys apart.
type keyed struct {
	key int
	tag byte
}

func compareKeyed(a, b keyed) int { return cmp.Compare(a.key, b.key) }

// ks builds a list of keyed elements from key/tag pairs.
func ks(pairs ...any) []keyed {
	out := make([]keyed, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, keyed{key: pairs[i].(int), tag: byte(pairs[i+1].(rune))})
	}
	return out
}

func TestCheckRun(t *testing.T) {
	for _, tc := range []struct {
		s    []keyed
		want int
	}{
		{nil, -1},
		{ks(1, 'a'), -1},
		{ks(1, 'a', 2, 'a', 5, 'a'), -1},
		{ks(1, 'a', 1, 'b'), 1},
		{ks(2, 'a', 1, 'a'), 1},
		{ks(1, 'a', 2, 'a', 2, 'b', 0, 'a'), 2},
	} {
		if got := CheckRun(tc.s, compareKeyed); got != tc.want {
			t.Errorf("CheckRun(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestMergeRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dst    []keyed
		runs   [][]keyed
		want   []keyed
		repeat int
	}{
		{name: "no runs", want: nil, repeat: -1},
		{name: "empty runs", runs: [][]keyed{nil, {}}, want: nil, repeat: -1},
		{name: "one run", runs: [][]keyed{nil, ks(1, 'a', 3, 'a'), {}}, want: ks(1, 'a', 3, 'a'), repeat: -1},
		{name: "one run repeating a key", runs: [][]keyed{ks(1, 'a', 1, 'b')}, want: ks(1, 'a', 1, 'b'), repeat: 1},
		{name: "disjoint runs", runs: [][]keyed{ks(2, 'a', 4, 'a'), {}, ks(1, 'c', 3, 'c', 5, 'c')},
			want: ks(1, 'c', 2, 'a', 3, 'c', 4, 'a', 5, 'c'), repeat: -1},
		{name: "a key two runs share", runs: [][]keyed{ks(1, 'a', 3, 'a'), ks(1, 'b', 2, 'b')},
			want: ks(1, 'a', 1, 'b', 2, 'b', 3, 'a'), repeat: 1},
		{name: "a key one of two runs repeats", runs: [][]keyed{ks(1, 'a', 2, 'a', 2, 'b'), ks(0, 'c')},
			want: ks(0, 'c', 1, 'a', 2, 'a', 2, 'b'), repeat: 3},
		{name: "onto a prefix", dst: ks(9, 'z'), runs: [][]keyed{ks(1, 'a'), ks(1, 'b')},
			want: ks(9, 'z', 1, 'a', 1, 'b'), repeat: 2},
		{name: "the prefix is not compared", dst: ks(1, 'z'), runs: [][]keyed{ks(1, 'a')},
			want: ks(1, 'z', 1, 'a'), repeat: -1},
	} {
		runs := make([][]keyed, len(tc.runs))
		copy(runs, tc.runs)
		got, repeat := MergeRuns(slices.Clone(tc.dst), runs, compareKeyed)
		if !reflect.DeepEqual(got, tc.want) || repeat != tc.repeat {
			t.Errorf("%s: MergeRuns = %v, %d; want %v, %d", tc.name, got, repeat, tc.want, tc.repeat)
		}
	}

	// With no dst, a sole non-empty run is handed back as is; with one, it
	// is copied.
	run := ks(1, 'a', 2, 'a')
	if got, _ := MergeRuns(nil, [][]keyed{{}, run}, compareKeyed); &got[0] != &run[0] {
		t.Error("a sole run was copied, want it returned as is")
	}
	if got, _ := MergeRuns([]keyed{}, [][]keyed{run}, compareKeyed); &got[0] == &run[0] {
		t.Error("a sole run merged onto a dst aliases the run")
	}
}

func TestNormalizeRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    []keyed
		want []keyed
	}{
		{"empty", nil, nil},
		{"a run", ks(1, 'a', 2, 'a'), ks(1, 'a', 2, 'a')},
		{"reversed", ks(3, 'a', 2, 'a', 1, 'a'), ks(1, 'a', 2, 'a', 3, 'a')},
		{"last wins", ks(3, 'a', 1, 'a', 3, 'b', 2, 'a', 1, 'b'), ks(1, 'b', 2, 'a', 3, 'b')},
		{"one key", ks(1, 'a', 1, 'b', 1, 'c'), ks(1, 'c')},
	} {
		s := slices.Clone(tc.s)
		got := NormalizeRun(s, compareKeyed)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: NormalizeRun(%v) = %v, want %v", tc.name, tc.s, got, tc.want)
		}
		if len(got) > 0 && &got[0] != &s[0] {
			t.Errorf("%s: NormalizeRun did not work in place", tc.name)
		}
		if tail := s[len(got):]; !slices.Equal(tail, make([]keyed, len(tail))) {
			t.Errorf("%s: NormalizeRun left %v past the run", tc.name, tail)
		}
	}
}

// FuzzMergeRuns holds MergeRuns and NormalizeRun to references that do it
// the slow way: concatenate the runs, stable sort, then scan for adjacent
// equal keys (MergeRuns' repeat) or keep the last of each (NormalizeRun).
// The fuzzer's bytes make up to four sorted runs, repeats allowed.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{2, 1, 3, 5, 2, 4, 6})
	f.Add([]byte{3, 7, 7, 1, 8, 2, 2, 9})
	f.Add([]byte{1, 4, 4, 4})
	f.Add([]byte{4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%4)
		runs := make([][]keyed, k)
		for i, b := range data[1:] {
			runs[int(b)%k] = append(runs[int(b)%k], keyed{key: int(b) / k % 16, tag: byte(i)})
		}
		var concat []keyed
		for _, r := range runs {
			slices.SortStableFunc(r, compareKeyed)
			concat = append(concat, r...)
		}
		want := slices.Clone(concat)
		slices.SortStableFunc(want, compareKeyed)
		wantRepeat := -1
		for i := 1; i < len(want); i++ {
			if want[i].key == want[i-1].key {
				wantRepeat = i
				break
			}
		}
		var nonEmpty [][]keyed
		for _, r := range runs {
			if len(r) > 0 {
				nonEmpty = append(nonEmpty, r)
			}
		}

		got, repeat := MergeRuns(nil, slices.Clone(runs), compareKeyed)
		if !slices.Equal(got, want) || repeat != wantRepeat {
			t.Fatalf("MergeRuns(%v) = %v, %d; want %v, %d", runs, got, repeat, want, wantRepeat)
		}
		if len(nonEmpty) == 1 && &got[0] != &nonEmpty[0][0] {
			t.Fatal("a sole run was copied, want it returned as is")
		}
		onto, repeat := MergeRuns([]keyed{}, slices.Clone(runs), compareKeyed)
		if !slices.Equal(onto, want) || repeat != wantRepeat {
			t.Fatalf("MergeRuns onto a dst (%v) = %v, %d; want %v, %d", runs, onto, repeat, want, wantRepeat)
		}

		var last []keyed
		for _, x := range want {
			if n := len(last); n > 0 && last[n-1].key == x.key {
				last[n-1] = x
			} else {
				last = append(last, x)
			}
		}
		if norm := NormalizeRun(slices.Clone(concat), compareKeyed); !slices.Equal(norm, last) {
			t.Fatalf("NormalizeRun(%v) = %v, want %v", concat, norm, last)
		}
	})
}
