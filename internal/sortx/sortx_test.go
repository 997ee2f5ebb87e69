package sortx

import (
	"bytes"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tcq/internal/scratch"
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

// isSorted reports whether ts is sorted under cmp.
func isSorted(ts []tuple.Tuple, cmp func(a, b tuple.Tuple) int) bool {
	for i := 1; i < len(ts); i++ {
		if cmp(ts[i-1], ts[i]) > 0 {
			return false
		}
	}
	return true
}

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
	r := SortKeyedIdx(new(scratch.Arena), keys, runSize)
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
	if !isSorted(r.Sorted, byFirst) {
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
	if !isSorted(r.Sorted, byFirst) {
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
		return isSorted(r.Sorted, byFirst)
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

func TestIsSorted(t *testing.T) {
	if !isSorted(nil, byFirst) || !isSorted(intTuples(1), byFirst) {
		t.Error("trivial slices are sorted")
	}
	if !isSorted(intTuples(1, 1, 2), byFirst) {
		t.Error("non-strict order is sorted")
	}
	if isSorted(intTuples(2, 1), byFirst) {
		t.Error("descending should not be sorted")
	}
}

// refSort is the oracle SortKeyedIdx is pinned against: the same
// algorithm — slices.SortStableFunc per run of at most runSize, then a
// container/heap k-way merge — over bare row indices compared with
// plain bytes.Compare on the full keys, counting every comparator call.
// The count is charged to the simulated clock, so SortKeyedIdx's
// prefix-first comparator must be called exactly as often, and leave
// exactly the same permutation, as this one.
func refSort(keys [][]byte, runSize int) (perm []int32, comps int64, nRuns int) {
	n := len(keys)
	if n == 0 {
		return nil, 0, 0
	}
	cmp := func(a, b int32) int {
		comps++
		return bytes.Compare(keys[a], keys[b])
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	var runs [][]int32
	for lo := 0; lo < n; lo += runSize {
		run := idx[lo:min(lo+runSize, n)]
		slices.SortStableFunc(run, cmp)
		runs = append(runs, run)
	}
	if len(runs) == 1 {
		return idx, comps, 1
	}
	h := &refHeap{cmp: cmp}
	for i, r := range runs {
		h.items = append(h.items, refItem{run: i, item: r[0]})
	}
	heap.Init(h)
	pos := make([]int, len(runs))
	for h.Len() > 0 {
		it := h.items[0]
		perm = append(perm, it.item)
		pos[it.run]++
		if p := pos[it.run]; p < len(runs[it.run]) {
			h.items[0].item = runs[it.run][p]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return perm, comps, len(runs)
}

type refItem struct {
	run  int
	item int32
}

type refHeap struct {
	items []refItem
	cmp   func(a, b int32) int
}

func (h *refHeap) Len() int           { return len(h.items) }
func (h *refHeap) Less(i, j int) bool { return h.cmp(h.items[i].item, h.items[j].item) < 0 }
func (h *refHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x any)         { h.items = append(h.items, x.(refItem)) }
func (h *refHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// randKeys draws n keys from a pool built to stress the abbreviation:
// keys shorter than eight bytes (one a zero-padded prefix of another),
// keys that share their first eight bytes and differ only in the tail,
// exact duplicates, normalized strings with escaped NULs, and plain
// normalized integers.
func randKeys(rng *rand.Rand, n int) [][]byte {
	pool := [][]byte{
		{}, {0}, {0, 0}, {1}, {1, 0}, {1, 0, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0, 0, 0},
		[]byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefghi"), []byte("abcdefghij"), []byte("abcdefg"),
	}
	for _, str := range []string{"", "a", "a\x00", "a\x00b", "\x00", "\x00\x00", "sameprefix-1", "sameprefix-2"} {
		pool = append(pool, tuple.AppendNormKey(nil, tuple.Tuple{str, int64(rng.Intn(3))}, nil, nil))
	}
	keys := make([][]byte, n)
	for i := range keys {
		switch rng.Intn(3) {
		case 0:
			keys[i] = pool[rng.Intn(len(pool))]
		case 1: // (int, int): the 8-byte prefix is the first column only
			keys[i] = tuple.AppendNormKey(nil, tuple.Tuple{int64(rng.Intn(4)), int64(rng.Intn(50) - 25)}, nil, nil)
		default:
			keys[i] = tuple.AppendNormKey(nil, tuple.Tuple{int64(rng.Intn(1000) - 500)}, nil, nil)
		}
	}
	return keys
}

func TestSortKeyedIdxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct{ n, runSize int }
	shapes := []shape{
		{1, 4}, {2, 4}, {4, 4}, {5, 4}, {9, 4}, {33, 8}, {200, 16},
		{DefaultRunSize - 1, 0}, {DefaultRunSize, 0}, {DefaultRunSize + 1, 0}, {3*DefaultRunSize + 7, 0},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, shape{rng.Intn(700), 1 + rng.Intn(64)})
	}
	mem := new(scratch.Arena) // one arena, recycled: every sort but the first runs on used memory
	for _, sh := range shapes {
		keys := randKeys(rng, sh.n)
		in := slices.Clone(keys)
		mem.Reset()
		got := SortKeyedIdx(mem, keys, sh.runSize)
		runSize := sh.runSize
		if runSize <= 0 {
			runSize = DefaultRunSize
		}
		perm, comps, runs := refSort(keys, runSize)
		if !slices.Equal(got.Perm, perm) {
			t.Fatalf("n=%d runSize=%d: Perm diverges from the reference sort", sh.n, sh.runSize)
		}
		if got.Comparisons != comps || got.Runs != runs {
			t.Fatalf("n=%d runSize=%d: comparisons %d runs %d, reference %d and %d",
				sh.n, sh.runSize, got.Comparisons, got.Runs, comps, runs)
		}
		for i, j := range got.Perm {
			if !bytes.Equal(got.Keys[i], keys[j]) || got.Pres[i] != prefix(keys[j]) {
				t.Fatalf("n=%d runSize=%d: Keys/Pres[%d] do not belong to input %d", sh.n, sh.runSize, i, j)
			}
		}
		for i := range in {
			if !bytes.Equal(in[i], keys[i]) {
				t.Fatalf("n=%d: input key %d modified", sh.n, i)
			}
		}
	}
}

// TestPrefixOrderPreserving pins the abbreviation's contract: unequal
// prefixes order two keys as bytes.Compare does.
func TestPrefixOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := randKeys(rng, 400)
	for _, a := range keys {
		for _, b := range keys {
			pa, pb := prefix(a), prefix(b)
			if pa != pb && (pa < pb) != (bytes.Compare(a, b) < 0) {
				t.Fatalf("prefix order disagrees with key order: %x vs %x", a, b)
			}
		}
	}
}
