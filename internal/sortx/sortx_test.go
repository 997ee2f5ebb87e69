package sortx

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tcq/internal/tuple"
)

func intTuples(vals ...int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		out[i] = tuple.Tuple{v}
	}
	return out
}

func byFirst(a, b tuple.Tuple) int { return tuple.CompareValues(a[0], b[0]) }

// result is a sorted copy of the input with the sort's accounting.
type result struct {
	Sorted      []tuple.Tuple
	Comparisons int64
	Runs        int
}

// sortTuples sorts single-column tuples the way the executors sort a
// run: SortKeyedIdx over the tuples' normalized keys, then a gather
// through the permutation. It also checks that Keys comes back aligned
// with Perm.
func sortTuples(t *testing.T, ts []tuple.Tuple, runSize int) result {
	t.Helper()
	keys := make([][]byte, len(ts))
	for i, tp := range ts {
		keys[i] = tuple.AppendNormKey(nil, tp, nil, nil)
	}
	r := SortKeyedIdx(keys, runSize)
	out := result{Comparisons: r.Comparisons, Runs: r.Runs}
	for i, j := range r.Perm {
		if !bytes.Equal(r.Keys[i], keys[j]) {
			t.Fatalf("Keys[%d] is not the key of input %d", i, j)
		}
		out.Sorted = append(out.Sorted, ts[j])
	}
	return out
}

func TestSortEmptyAndSingle(t *testing.T) {
	r := sortTuples(t, nil, 4)
	if len(r.Sorted) != 0 || r.Runs != 0 || r.Comparisons != 0 {
		t.Errorf("empty sort: %+v", r)
	}
	r = sortTuples(t, intTuples(7), 4)
	if len(r.Sorted) != 1 || r.Runs != 1 {
		t.Errorf("single sort: %+v", r)
	}
}

func TestSortSingleRun(t *testing.T) {
	r := sortTuples(t, intTuples(3, 1, 2), 10)
	if r.Runs != 1 {
		t.Errorf("runs = %d, want 1", r.Runs)
	}
	if !IsSorted(r.Sorted, byFirst) {
		t.Errorf("not sorted: %v", r.Sorted)
	}
	if r.Comparisons <= 0 {
		t.Error("comparisons should be counted")
	}
}

func TestSortMultiRunMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	in := intTuples(vals...)
	r := sortTuples(t, in, 64)
	if r.Runs != 16 {
		t.Errorf("runs = %d, want 16", r.Runs)
	}
	if len(r.Sorted) != 1000 {
		t.Fatalf("lost tuples: %d", len(r.Sorted))
	}
	if !IsSorted(r.Sorted, byFirst) {
		t.Error("multi-run output not sorted")
	}
	// Input must be untouched.
	if in[0][0].(int64) != vals[0] {
		t.Error("Sort must not modify its input")
	}
	// Multiset preserved: count occurrences.
	count := map[int64]int{}
	for _, v := range vals {
		count[v]++
	}
	for _, tp := range r.Sorted {
		count[tp[0].(int64)]--
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d", v, c)
		}
	}
}

func TestSortDefaultRunSize(t *testing.T) {
	in := intTuples(make([]int64, 2*DefaultRunSize+1)...)
	r := sortTuples(t, in, 0)
	if r.Runs != 3 {
		t.Errorf("default run size: runs = %d, want 3", r.Runs)
	}
}

func TestSortPropertyMatchesReference(t *testing.T) {
	f := func(raw []int16, runSizeRaw uint8) bool {
		runSize := int(runSizeRaw%32) + 1
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		r := sortTuples(t, intTuples(vals...), runSize)
		if len(r.Sorted) != len(vals) {
			return false
		}
		return IsSorted(r.Sorted, byFirst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortComparisonsScaleNLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) []tuple.Tuple {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		return intTuples(vals...)
	}
	small := sortTuples(t, mk(1000), 128).Comparisons
	large := sortTuples(t, mk(4000), 128).Comparisons
	// 4x input should cost between ~4x and ~7x comparisons (n log n).
	if large < 3*small || large > 9*small {
		t.Errorf("comparison growth suspicious: %d -> %d", small, large)
	}
}

func TestMergeSorted(t *testing.T) {
	a := intTuples(1, 3, 5)
	b := intTuples(2, 3, 6)
	out, comps := MergeSorted(a, b, byFirst)
	want := []int64{1, 2, 3, 3, 5, 6}
	if len(out) != len(want) {
		t.Fatalf("merged %d tuples", len(out))
	}
	for i, w := range want {
		if out[i][0].(int64) != w {
			t.Fatalf("merged = %v", out)
		}
	}
	if comps <= 0 || comps > int64(len(a)+len(b)) {
		t.Errorf("comparisons = %d", comps)
	}
	// Empty sides.
	out, _ = MergeSorted(nil, b, byFirst)
	if len(out) != 3 {
		t.Errorf("merge with empty left = %v", out)
	}
	out, _ = MergeSorted(a, nil, byFirst)
	if len(out) != 3 {
		t.Errorf("merge with empty right = %v", out)
	}
}

func TestMergeSortedStability(t *testing.T) {
	// Ties must take the left element first.
	a := []tuple.Tuple{{int64(1), "left"}}
	b := []tuple.Tuple{{int64(1), "right"}}
	out, _ := MergeSorted(a, b, byFirst)
	if out[0][1] != "left" || out[1][1] != "right" {
		t.Errorf("merge not stable: %v", out)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil, byFirst) || !IsSorted(intTuples(1), byFirst) {
		t.Error("trivial slices are sorted")
	}
	if !IsSorted(intTuples(1, 1, 2), byFirst) {
		t.Error("non-strict order is sorted")
	}
	if IsSorted(intTuples(2, 1), byFirst) {
		t.Error("descending should not be sorted")
	}
}
