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
// normalized byte keys (internal/tuple). The elements it moves are
// (8-byte key prefix, row) pairs, so nearly every comparison is decided
// on two integers already in registers; bytes.Compare over the full keys
// runs only on equal prefixes. The comparator-call sequence of the
// stable run sort and of the heap merge depends only on the ordering,
// so charged comparison counts are those of sorting the tuples
// themselves with any comparator that agrees with the key order.
package sortx

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"slices"

	"tcq/internal/scratch"
)

// DefaultRunSize is the default number of tuples per initial run,
// modelling the sort buffer of the prototype DBMS.
const DefaultRunSize = 512

// keyed is the element the sort orders: a key's abbreviation and the
// input row it belongs to.
type keyed struct {
	pre uint64
	row int32
}

// prefix abbreviates a normalized key to its first eight bytes as a
// big-endian integer, zero-padded. Zero padding is order-preserving
// against bytes.Compare (no key byte sorts below 0x00), so unequal
// prefixes decide a comparison and equal prefixes fall back to the full
// keys.
func prefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// IdxResult reports the outcome of an argsort by cached keys: the
// sorting permutation (Perm[i] is the input index of sorted rank i)
// plus the keys and their 8-byte prefixes gathered into sorted order.
// The three slices are scratch of the arena the sort was given.
type IdxResult struct {
	Perm        []int32
	Keys        [][]byte
	Pres        []uint64
	Comparisons int64
	Runs        int
}

// slabs is the sort's own memory on an arena: elements and run heads.
type slabs struct {
	elems scratch.Slab[keyed]
	heap  mergeHeap
}

func (m *slabs) Reset() { m.elems.Reset(keyed{pre: 1<<64 - 1, row: -1}) }

// SortKeyedIdx externally argsorts the normalized keys (runs of at most
// runSize keys, DefaultRunSize when runSize <= 0) and returns the
// sorting permutation; callers gather their columnar data through it.
// The input slice is not modified; all memory comes from a.
func SortKeyedIdx(a *scratch.Arena, keys [][]byte, runSize int) IdxResult {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	n := len(keys)
	if n == 0 {
		return IdxResult{}
	}
	m := scratch.Of[slabs](a)
	elems := m.elems.Alloc(n)
	for i, k := range keys {
		elems[i] = keyed{pre: prefix(k), row: int32(i)}
	}
	// Phase 1: run generation, each run sorted in place.
	var comps int64
	cmp := func(a, b keyed) int {
		comps++
		return compare(keys, a, b)
	}
	runs := 0
	for lo := 0; lo < n; lo += runSize {
		slices.SortStableFunc(elems[lo:min(lo+runSize, n)], cmp)
		runs++
	}
	// Phase 2: k-way heap merge.
	if runs > 1 {
		elems = m.mergeRuns(elems, keys, runSize)
		comps += m.heap.comps
	}

	res := IdxResult{
		Perm:        a.I32.Alloc(n),
		Keys:        a.Keys.Alloc(n),
		Pres:        a.U64.Alloc(n),
		Comparisons: comps,
		Runs:        runs,
	}
	for i, e := range elems {
		res.Perm[i], res.Keys[i], res.Pres[i] = e.row, keys[e.row], e.pre
	}
	return res
}

// compare orders two elements: by prefix, then — on equal prefixes
// only — by their full keys.
func compare(keys [][]byte, a, b keyed) int {
	if a.pre != b.pre {
		if a.pre < b.pre {
			return -1
		}
		return 1
	}
	return bytes.Compare(keys[a.row], keys[b.row])
}

// mergeRuns merges the sorted runs elems[0:runSize], elems[runSize:…], …
// into one sorted slice; its comparisons are left in m.heap.comps.
func (m *slabs) mergeRuns(elems []keyed, keys [][]byte, runSize int) []keyed {
	n := len(elems)
	out := m.elems.Alloc(n)[:0]
	h := &m.heap
	h.items, h.keys, h.comps = h.items[:0], keys, 0
	for lo := 0; lo < n; lo += runSize {
		h.items = append(h.items, mergeItem{next: lo + 1, end: min(lo+runSize, n), item: elems[lo]})
	}
	heap.Init(h)
	for h.Len() > 0 {
		it := &h.items[0]
		out = append(out, it.item)
		if it.next < it.end {
			it.item = elems[it.next]
			it.next++
		} else {
			// heap.Pop without boxing the popped head: swap it last, drop
			// it, and sift the new head down — the same comparisons.
			last := h.Len() - 1
			h.Swap(0, last)
			h.items = h.items[:last]
		}
		heap.Fix(h, 0)
	}
	h.keys = nil
	return out
}

// mergeItem is the head of one run: its current element and the
// positions [next, end) of the run's remaining ones.
type mergeItem struct {
	next, end int
	item      keyed
}

type mergeHeap struct {
	items []mergeItem
	keys  [][]byte
	comps int64
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	h.comps++
	return compare(h.keys, h.items[i].item, h.items[j].item) < 0
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
