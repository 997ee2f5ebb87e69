// Package sortx implements the external merge sort used by the sample
// executors (step 2 of the paper's Intersect/Join/Project algorithms,
// Figs. 4.4, 4.6, 4.7; cost formula 4.3: C·n·log n + C·n + C).
//
// The sort is run-based: the input is cut into bounded runs, each run is
// sorted in memory, and the runs are merged with a k-way heap merge —
// the classical external sorting structure, even though the "files" are
// in-memory slices in this reproduction. Comparison counts are returned
// so callers can charge CPU cost to the session clock in one step.
//
// The executors sort through SortKeyedIdx: an argsort over cached
// normalized byte keys (internal/tuple), comparing with bytes.Compare
// instead of re-walking columns. The generic core's comparator-call
// sequence depends only on the ordering, so charged comparison counts
// are those of sorting the tuples themselves.
package sortx

import (
	"bytes"
	"container/heap"
	"slices"
	"sync"

	"tcq/internal/tuple"
)

// DefaultRunSize is the default number of tuples per initial run,
// modelling the sort buffer of the prototype DBMS.
const DefaultRunSize = 512

// Cmp orders two tuples; negative means a < b.
type Cmp func(a, b tuple.Tuple) int

// counter tallies comparator invocations without a capturing closure
// per run: one counter per sort call, its method bound once.
type counter[T any] struct {
	cmp func(a, b T) int
	n   int64
}

func (c *counter[T]) compare(a, b T) int {
	c.n++
	return c.cmp(a, b)
}

// sortCore externally sorts items (copied into a contiguous run arena)
// and returns the sorted slice, the comparison count and the number of
// initial runs. The input slice is not modified.
func sortCore[T any](items []T, cmp func(a, b T) int, runSize int) ([]T, int64, int) {
	n := len(items)
	if n == 0 {
		return nil, 0, 0
	}
	c := &counter[T]{cmp: cmp}
	counting := c.compare

	// Phase 1: run generation. Runs are contiguous chunks of one arena,
	// each sorted in place.
	arena := make([]T, n)
	copy(arena, items)
	nRuns := (n + runSize - 1) / runSize
	runs := make([][]T, 0, nRuns)
	for lo := 0; lo < n; lo += runSize {
		hi := min(lo+runSize, n)
		run := arena[lo:hi:hi]
		slices.SortStableFunc(run, counting)
		runs = append(runs, run)
	}
	if len(runs) == 1 {
		return arena, c.n, 1
	}

	// Phase 2: k-way heap merge.
	out := make([]T, 0, n)
	h := &mergeHeap[T]{cmp: counting}
	for i, r := range runs {
		h.items = append(h.items, mergeItem[T]{run: i, item: r[0]})
	}
	heap.Init(h)
	pos := make([]int, len(runs))
	for h.Len() > 0 {
		it := h.items[0]
		out = append(out, it.item)
		pos[it.run]++
		if p := pos[it.run]; p < len(runs[it.run]) {
			h.items[0].item = runs[it.run][p]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, c.n, len(runs)
}

// idxPool recycles the index arenas of SortKeyedIdx (the hot path of
// the executors: one argsort per side per stage).
var idxPool = sync.Pool{New: func() any { return []int32(nil) }}

// IdxResult reports the outcome of an argsort by cached keys: the
// sorting permutation (Perm[i] is the input index of sorted rank i)
// plus the keys gathered into sorted order.
type IdxResult struct {
	Perm        []int32
	Keys        [][]byte
	Comparisons int64
	Runs        int
}

// SortKeyedIdx externally argsorts the normalized keys (runs of at most
// runSize keys, DefaultRunSize when runSize <= 0) and returns the
// sorting permutation; callers gather their columnar data through it.
// The input slice is not modified.
func SortKeyedIdx(keys [][]byte, runSize int) IdxResult {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	n := len(keys)
	if n == 0 {
		return IdxResult{}
	}
	// Argsort: order indices by key, then gather. Index moves are 4
	// bytes instead of a tuple header + key header per swap.
	idx := idxPool.Get().([]int32)
	if cap(idx) < n {
		idx = make([]int32, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	cmp := func(a, b int32) int { return bytes.Compare(keys[a], keys[b]) }
	sortedIdx, comps, runs := sortCore(idx, cmp, runSize)
	outK := make([][]byte, n)
	for i, j := range sortedIdx {
		outK[i] = keys[j]
	}
	idxPool.Put(idx[:0])
	return IdxResult{Perm: sortedIdx, Keys: outK, Comparisons: comps, Runs: runs}
}

type mergeItem[T any] struct {
	run  int
	item T
}

type mergeHeap[T any] struct {
	items []mergeItem[T]
	cmp   func(a, b T) int
}

func (h *mergeHeap[T]) Len() int           { return len(h.items) }
func (h *mergeHeap[T]) Less(i, j int) bool { return h.cmp(h.items[i].item, h.items[j].item) < 0 }
func (h *mergeHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap[T]) Push(x interface{}) { h.items = append(h.items, x.(mergeItem[T])) }
func (h *mergeHeap[T]) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// MergeSorted merges two sorted slices into one sorted slice, returning
// the merged slice and the number of comparisons. Neither input is
// modified. Ties take the left element first (stable).
func MergeSorted(a, b []tuple.Tuple, cmp Cmp) ([]tuple.Tuple, int64) {
	out := make([]tuple.Tuple, 0, len(a)+len(b))
	var comparisons int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		comparisons++
		if cmp(a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, comparisons
}

// IsSorted reports whether ts is sorted under cmp.
func IsSorted(ts []tuple.Tuple, cmp Cmp) bool {
	for i := 1; i < len(ts); i++ {
		if cmp(ts[i-1], ts[i]) > 0 {
			return false
		}
	}
	return true
}
