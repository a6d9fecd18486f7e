package core

import "slices"

// A run is a list sorted strictly by its cell key. Every per-unit list —
// o-layer and exception cells, cell states, frame records, alerts — is
// one, so a unit's disjoint parts merge losslessly; these three functions
// check, merge and normalise them all.

// CheckRun returns the index of the first element of s that is not
// strictly after its predecessor under cmp, or -1 when s is a run.
func CheckRun[T any](s []T, cmp func(a, b T) int) int {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			return i
		}
	}
	return -1
}

// MergeRuns k-way merges runs onto dst, equal elements in run order, and
// returns the index in the result of the first merged element equal to its
// predecessor, or -1. With dst nil and at most one non-empty run it
// returns that run as is, with CheckRun's index. It advances the entries
// of runs; a linear scan for the least head suits the few parts there are.
func MergeRuns[T any](dst []T, runs [][]T, cmp func(a, b T) int) ([]T, int) {
	if dst == nil {
		var sole []T
		n := 0
		for _, r := range runs {
			if len(r) > 0 {
				sole, n = r, n+len(r)
			}
		}
		if n == len(sole) {
			return sole, CheckRun(sole, cmp)
		}
		dst = make([]T, 0, n)
	}
	start, repeat := len(dst), -1
	for {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || cmp(r[0], runs[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return dst, repeat
		}
		if repeat < 0 && len(dst) > start && cmp(dst[len(dst)-1], runs[best][0]) == 0 {
			repeat = len(dst)
		}
		dst, runs[best] = append(dst, runs[best][0]), runs[best][1:]
	}
}

// NormalizeRun makes s a run in place: a stable sort that keeps the last of
// each group of equal keys, as if each later entry replaced the earlier.
func NormalizeRun[T any](s []T, cmp func(a, b T) int) []T {
	if CheckRun(s, cmp) < 0 {
		return s
	}
	slices.Reverse(s) // the stable sort then puts the last entry of a key first
	slices.SortStableFunc(s, cmp)
	return slices.CompactFunc(s, func(a, b T) bool { return cmp(a, b) == 0 })
}
