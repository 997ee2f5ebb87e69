// Package scratch is the memory of one query: an Arena of typed bump
// slabs from which the stage loop takes every buffer whose lifetime is
// the query. A slab hands out pieces of one chunk and adds a chunk when
// that runs out; Reset, at the end of the query, keeps the memory at its
// high-water size in one chunk, so a repeated query allocates nothing.
//
// Ownership: the session that runs the query owns the arena
// (storage.Store.Scratch acquires it, MergeCounters resets it into the
// root store's pool; one never released is ordinary garbage). Scratch is
// valid until that session ends: what outlives the query — results, stage
// records, traces — is copied out before. An arena serves one goroutine;
// one running beside the query's own gets a Child.
package scratch

// poison makes every Reset, and every chunk added after one, overwrite
// the slab with a non-zero pattern, so a read of never-written or
// released scratch shows up.
var poison bool

// SetPoison is for TestMain of the packages whose suites run poisoned.
func SetPoison(on bool) { poison = on }

// Slab is a bump allocator of T.
type Slab[T any] struct {
	buf     []T // current chunk; buf[:n] is handed out
	n       int
	retired int // elements handed out from chunks replaced since Reset
	junk    T   // the poison pattern, as of the last Reset
}

// Alloc returns n elements of unspecified content, never a nil slice.
func (s *Slab[T]) Alloc(n int) []T {
	if n > len(s.buf)-s.n || s.buf == nil {
		s.retired += s.n
		s.buf, s.n = make([]T, max(n, 2*len(s.buf), 16)), 0
		s.poison()
	}
	s.n += n
	return s.buf[s.n-n : s.n : s.n]
}

// Grow returns b with room for n more elements: extended in place when
// b is the slab's latest piece, moved to one of twice the size otherwise.
func (s *Slab[T]) Grow(b []T, n int) []T {
	c := cap(b)
	if len(b)+n <= c {
		return b
	}
	want := max(len(b)+n, 2*c, 8)
	if c > 0 && s.n >= c && &b[:c][c-1] == &s.buf[s.n-1] && want-c <= len(s.buf)-s.n {
		s.n += want - c
		return s.buf[s.n-want : s.n-want+len(b) : s.n]
	}
	out := s.Alloc(want)[:len(b)]
	copy(out, b)
	return out
}

// Reset takes back everything handed out and coalesces the chunks.
// Under poison, junk overwrites the slab and every chunk added later.
func (s *Slab[T]) Reset(junk T) {
	if need := s.retired + s.n; need > len(s.buf) {
		s.buf = make([]T, need)
	}
	s.n, s.retired, s.junk = 0, 0, junk
	s.poison()
}

func (s *Slab[T]) poison() {
	if poison {
		for i := range s.buf {
			s.buf[i] = s.junk
		}
	}
}

// Ext is package-owned state on an arena: slabs of its record types.
type Ext interface{ Reset() }

// Arena is one query's scratch memory. The zero value is ready to use,
// but learns its poison patterns only at its first Reset: New has them.
type Arena struct {
	Ints    Slab[int64]
	Floats  Slab[float64]
	Strings Slab[string]
	Bytes   Slab[byte]
	Keys    Slab[[]byte]
	U64     Slab[uint64]
	I32     Slab[int32]
	Idx     Slab[int]

	ext   []Ext
	kids  []*Arena
	nkids int
}

// New returns an empty arena that has been Reset once.
func New() *Arena {
	a := new(Arena)
	a.Reset()
	return a
}

// Of returns the arena's extension of type *T, created on first use.
func Of[T any, P interface {
	*T
	Ext
}](a *Arena) P {
	for _, e := range a.ext {
		if p, ok := e.(P); ok {
			return p
		}
	}
	p := P(new(T))
	p.Reset()
	a.ext = append(a.ext, p)
	return p
}

// Child returns an arena for a goroutine beside the owner's; Reset
// resets and recycles the children.
func (a *Arena) Child() *Arena {
	if a.nkids == len(a.kids) {
		a.kids = append(a.kids, New())
	}
	a.nkids++
	return a.kids[a.nkids-1]
}

var junkKey = []byte("\xa5\xa5\xa5\xa5\xa5\xa5\xa5\xa5")

// Reset ends the query: every slab, extension and child is reset.
func (a *Arena) Reset() {
	const junk = -0x5A5A5A5B
	a.Ints.Reset(junk)
	a.Floats.Reset(junk)
	a.Strings.Reset("\xa5\xa5\xa5\xa5\xa5\xa5\xa5\xa5")
	a.Bytes.Reset(0xA5)
	a.Keys.Reset(junkKey)
	a.U64.Reset(0xA5A5A5A5A5A5A5A5)
	a.I32.Reset(junk)
	a.Idx.Reset(junk)
	for _, e := range a.ext {
		e.Reset()
	}
	for _, k := range a.kids {
		k.Reset()
	}
	a.nkids = 0
}
