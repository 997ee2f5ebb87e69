package scratch

import (
	"slices"
	"testing"
)

func TestSlabAllocPiecesAreDisjointAndClamped(t *testing.T) {
	var s Slab[int]
	var pieces [][]int
	for i, n := range []int{0, 3, 40, 1, 500, 7} {
		p := s.Alloc(n)
		if p == nil || len(p) != n || cap(p) != n {
			t.Fatalf("Alloc(%d) = len %d cap %d nil=%v", n, len(p), cap(p), p == nil)
		}
		for j := range p {
			p[j] = i
		}
		pieces = append(pieces, p)
	}
	for i, p := range pieces {
		for _, v := range p {
			if v != i {
				t.Fatalf("piece %d was overwritten by piece %d", i, v)
			}
		}
	}
}

func TestSlabResetCoalescesToHighWater(t *testing.T) {
	var s Slab[byte]
	query := func() {
		for _, n := range []int{10, 300, 2000, 50} {
			s.Alloc(n)
		}
		s.Reset(0)
	}
	query()
	if len(s.buf) < 2360 {
		t.Fatalf("after Reset the chunk holds %d elements, the query used 2360", len(s.buf))
	}
	if allocs := testing.AllocsPerRun(10, query); allocs != 0 {
		t.Errorf("a repeated query allocates %v times on a warm slab", allocs)
	}
}

func TestSlabGrow(t *testing.T) {
	var s Slab[int32]
	var b []int32
	for i := int32(0); i < 1000; i++ {
		b = append(s.Grow(b, 1), i)
		if i == 500 {
			s.Alloc(3) // b is no longer the latest piece: the next Grow must move it
		}
	}
	for i, v := range b {
		if v != int32(i) {
			t.Fatalf("b[%d] = %d after growth", i, v)
		}
	}
	// In place: the latest piece grows without moving.
	s.Reset(0)
	p := append(s.Alloc(4)[:0], 1, 2, 3, 4)
	q := s.Grow(p, 1)
	if &q[0] != &p[0] || cap(q) < 5 || !slices.Equal(q, p) {
		t.Errorf("Grow of the latest piece moved it (cap %d)", cap(q))
	}
	// A piece of another slab is never extended in place.
	var other Slab[int32]
	o := other.Alloc(4)
	if g := s.Grow(o, 1); &g[0] == &o[0] {
		t.Error("Grow extended a piece it does not own")
	}
}

type counter struct{ resets int }

func (c *counter) Reset() { c.resets++ }

func TestArenaOfChildAndReset(t *testing.T) {
	var a Arena
	c := Of[counter](&a)
	if Of[counter](&a) != c {
		t.Error("Of returned a second extension of one type")
	}
	k1, k2 := a.Child(), a.Child()
	if k1 == k2 || k1 == &a {
		t.Error("Child returned the same arena twice")
	}
	kc := Of[counter](k1)
	k1.Ints.Alloc(5)
	before := c.resets
	a.Reset()
	if c.resets != before+1 || kc.resets < 2 {
		t.Errorf("Reset reached the extension %d times, the child's %d", c.resets-before, kc.resets)
	}
	if a.Child() != k1 || a.Child() != k2 {
		t.Error("children are not recycled in call order after Reset")
	}
}

func TestPoisonFillsOnResetAndOnGrowth(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	a := New() // what a session acquires: new, or reset by the last release
	p := a.I32.Alloc(10)
	if p[0] == 0 || p[9] != p[0] {
		t.Fatalf("fresh chunk under poison reads %v", p)
	}
	if q := a.Child().U64.Alloc(3); q[2] != 0xA5A5A5A5A5A5A5A5 {
		t.Fatalf("fresh chunk of a new child under poison reads %x", q)
	}
	clear(p)
	big := a.Ints.Alloc(5000) // a chunk added later
	if big[4999] == 0 {
		t.Error("chunk added after Reset is not poisoned")
	}
	a.Reset() // release
	if p[0] == 0 {
		t.Error("released scratch still holds what the query wrote")
	}
	if k := a.Keys.Alloc(1)[0]; len(k) == 0 || k[0] != 0xA5 {
		t.Errorf("poisoned key slab reads %x", k)
	}
}
