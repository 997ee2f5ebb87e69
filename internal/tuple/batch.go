package tuple

import (
	"fmt"
	"strings"

	"tcq/internal/scratch"
)

// Batch is a column-oriented block of tuples: one typed slice per
// schema column instead of a []Value per row. It is the one physical
// representation from storage to estimator — relations store their data
// as one big Batch, a stage load copies each sampled block's row range
// into the stage batch (AppendRange), every operator consumes and
// produces batches (selection and merge outputs are index gathers), and
// rows are materialized to []Value form only for the exact reference
// evaluator and data export.
//
// A Batch obtained from Slice or Project is a view sharing the parent's
// column storage; views must be treated as read-only. Appending to the
// owning Batch never clobbers earlier views (column slices are
// capacity-clamped), it only reallocates.
type Batch struct {
	schema *Schema
	n      int
	cols   []colData
}

// colData holds one column's values; exactly one slice is non-nil,
// matching the column type.
type colData struct {
	ints    []int64
	floats  []float64
	strings []string
}

// NewBatch returns an empty batch for the schema.
func NewBatch(s *Schema) *Batch {
	return &Batch{schema: s, cols: make([]colData, len(s.cols))}
}

// NewBatchHeap returns an empty batch with room for exactly n rows on
// the heap: for a batch that outlives any query (a block decoded from a
// file), where NewBatchCap's scratch would not do.
func NewBatchHeap(s *Schema, n int) *Batch {
	b := NewBatch(s)
	for i, c := range s.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = make([]int64, 0, n)
		case Float:
			b.cols[i].floats = make([]float64, 0, n)
		case String:
			b.cols[i].strings = make([]string, 0, n)
		}
	}
	return b
}

// slabs are the batch headers a query's arena hands out.
type slabs struct {
	batches scratch.Slab[Batch]
	cols    scratch.Slab[colData]
}

func (m *slabs) Reset() { m.batches.Reset(Batch{}); m.cols.Reset(colData{}) }

// newScratch returns a batch header with ncols empty columns on a.
func newScratch(a *scratch.Arena, s *Schema, n, ncols int) *Batch {
	m := scratch.Of[slabs](a)
	b := &m.batches.Alloc(1)[0]
	*b = Batch{schema: s, n: n, cols: m.cols.Alloc(ncols)}
	clear(b.cols)
	return b
}

// NewBatchCap returns an empty batch with room for exactly n rows,
// header and columns scratch of the query that owns a.
func NewBatchCap(a *scratch.Arena, s *Schema, n int) *Batch {
	b := newScratch(a, s, 0, len(s.cols))
	for i, c := range s.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = a.Ints.Alloc(n)[:0]
		case Float:
			b.cols[i].floats = a.Floats.Alloc(n)[:0]
		case String:
			b.cols[i].strings = a.Strings.Alloc(n)[:0]
		}
	}
	return b
}

// MakeBatch wraps pre-built column slices into a batch without copying.
// Each of cols must be a []int64, []float64 or []string matching the
// schema's column type at that position, all of length n. The caller
// must not modify the slices afterwards. String values are width-checked
// against the schema.
func MakeBatch(s *Schema, n int, cols ...any) (*Batch, error) {
	if len(cols) != len(s.cols) {
		return nil, fmt.Errorf("tuple: MakeBatch got %d columns, schema wants %d", len(cols), len(s.cols))
	}
	b := &Batch{schema: s, n: n, cols: make([]colData, len(s.cols))}
	for i, c := range s.cols {
		switch v := cols[i].(type) {
		case []int64:
			if c.Type != Int || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []int64 len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			b.cols[i].ints = v[:n:n]
		case []float64:
			if c.Type != Float || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []float64 len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			b.cols[i].floats = v[:n:n]
		case []string:
			if c.Type != String || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []string len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			for _, s := range v {
				if len(s) > c.Size {
					return nil, fmt.Errorf("tuple: MakeBatch column %q: value %d bytes exceeds width %d", c.Name, len(s), c.Size)
				}
			}
			b.cols[i].strings = v[:n:n]
		default:
			return nil, fmt.Errorf("tuple: MakeBatch column %q: unsupported slice type %T", c.Name, cols[i])
		}
	}
	return b, nil
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Ints returns the typed storage of an Int column.
func (b *Batch) Ints(col int) []int64 { return b.cols[col].ints }

// Floats returns the typed storage of a Float column.
func (b *Batch) Floats(col int) []float64 { return b.cols[col].floats }

// Strings returns the typed storage of a String column.
func (b *Batch) Strings(col int) []string { return b.cols[col].strings }

// AppendRow validates t against the schema and appends it.
func (b *Batch) AppendRow(t Tuple) error {
	if err := t.Validate(b.schema); err != nil {
		return err
	}
	for i, c := range b.schema.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = append(b.cols[i].ints, t[i].(int64))
		case Float:
			b.cols[i].floats = append(b.cols[i].floats, t[i].(float64))
		case String:
			b.cols[i].strings = append(b.cols[i].strings, t[i].(string))
		}
	}
	b.n++
	return nil
}

// AppendBatch appends all rows of o (same schema) by bulk column copy.
func (b *Batch) AppendBatch(o *Batch) error {
	if !b.schema.Equal(o.schema) {
		return fmt.Errorf("tuple: AppendBatch schema mismatch")
	}
	b.AppendRange(o, 0, o.n)
	return nil
}

// AppendRange appends rows [lo, hi) of o by bulk column copy. o must
// have b's column types (callers pass a batch of the same relation).
func (b *Batch) AppendRange(o *Batch, lo, hi int) {
	for i := range b.cols {
		from, to := &o.cols[i], &b.cols[i]
		switch {
		case from.ints != nil:
			to.ints = append(to.ints, from.ints[lo:hi]...)
		case from.floats != nil:
			to.floats = append(to.floats, from.floats[lo:hi]...)
		case from.strings != nil:
			to.strings = append(to.strings, from.strings[lo:hi]...)
		}
	}
	b.n += hi - lo
}

// Slice returns a zero-copy view of rows [lo, hi). The view is
// read-only; it stays valid across later appends to b.
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{schema: b.schema, n: hi - lo, cols: make([]colData, len(b.cols))}
	for i := range b.cols {
		switch {
		case b.cols[i].ints != nil:
			out.cols[i].ints = b.cols[i].ints[lo:hi:hi]
		case b.cols[i].floats != nil:
			out.cols[i].floats = b.cols[i].floats[lo:hi:hi]
		case b.cols[i].strings != nil:
			out.cols[i].strings = b.cols[i].strings[lo:hi:hi]
		}
	}
	return out
}

// Project returns a zero-copy view holding only the columns at idx, in
// that order; s must be the projected schema (as from Schema.Project).
// The view's header is scratch of a.
func (b *Batch) Project(a *scratch.Arena, s *Schema, idx []int) *Batch {
	out := newScratch(a, s, b.n, len(idx))
	for i, j := range idx {
		out.cols[i] = b.cols[j]
	}
	return out
}

// Value returns the single value at (col, row) as a boxed Value.
func (b *Batch) Value(col, row int) Value {
	switch {
	case b.cols[col].ints != nil:
		return b.cols[col].ints[row]
	case b.cols[col].floats != nil:
		return b.cols[col].floats[row]
	default:
		return b.cols[col].strings[row]
	}
}

// Row materializes row i as a Tuple.
func (b *Batch) Row(i int) Tuple {
	t := make(Tuple, len(b.cols))
	b.fillRow(t, i)
	return t
}

func (b *Batch) fillRow(t Tuple, i int) {
	for c := range b.cols {
		switch {
		case b.cols[c].ints != nil:
			t[c] = b.cols[c].ints[i]
		case b.cols[c].floats != nil:
			t[c] = b.cols[c].floats[i]
		default:
			t[c] = b.cols[c].strings[i]
		}
	}
}

// Rows materializes every row, sharing one backing []Value arena.
func (b *Batch) Rows() []Tuple {
	if b.n == 0 {
		return nil
	}
	w := len(b.cols)
	arena := make([]Value, b.n*w)
	out := make([]Tuple, b.n)
	for i := range out {
		out[i] = Tuple(arena[i*w : (i+1)*w : (i+1)*w])
		b.fillRow(out[i], i)
	}
	return out
}

// Gather returns a new batch on a holding rows sel of b, in that order.
func (b *Batch) Gather(a *scratch.Arena, sel []int32) *Batch {
	out := NewBatchCap(a, b.schema, len(sel))
	out.AppendJoined(b, sel, nil, nil)
	return out
}

// AppendJoined appends len(lsel) rows to b: row i is row lsel[i] of l
// followed — when r is non-nil — by row rsel[i] of r (b's schema is
// then l's columns followed by r's, as from Schema.Concat).
func (b *Batch) AppendJoined(l *Batch, lsel []int32, r *Batch, rsel []int32) {
	appendRows(b.cols, l, lsel)
	if r != nil {
		appendRows(b.cols[len(l.cols):], r, rsel)
	}
	b.n += len(lsel)
}

// appendRows appends rows sel of src to dst, column by column.
func appendRows(dst []colData, src *Batch, sel []int32) {
	for c := range src.cols {
		from, to := &src.cols[c], &dst[c]
		switch {
		case from.ints != nil:
			for _, i := range sel {
				to.ints = append(to.ints, from.ints[i])
			}
		case from.floats != nil:
			for _, i := range sel {
				to.floats = append(to.floats, from.floats[i])
			}
		case from.strings != nil:
			for _, i := range sel {
				to.strings = append(to.strings, from.strings[i])
			}
		}
	}
}

// AppendNormKey appends the normalized sort key of row i over the given
// columns (all columns when cols is nil) to dst — the typed-column
// equivalent of the Tuple AppendNormKey, with identical encoding.
func (b *Batch) AppendNormKey(dst []byte, row int, cols []int, widen []bool) []byte {
	if cols == nil {
		for c := range b.cols {
			dst = b.appendNormCol(dst, row, c, false)
		}
		return dst
	}
	for k, c := range cols {
		dst = b.appendNormCol(dst, row, c, widen != nil && widen[k])
	}
	return dst
}

func (b *Batch) appendNormCol(dst []byte, row, c int, widen bool) []byte {
	switch {
	case b.cols[c].ints != nil:
		if widen {
			return appendNormFloat(dst, float64(b.cols[c].ints[row]))
		}
		return appendNormInt(dst, b.cols[c].ints[row])
	case b.cols[c].floats != nil:
		return appendNormFloat(dst, b.cols[c].floats[row])
	default:
		return appendNormString(dst, b.cols[c].strings[row])
	}
}

// NormKeysSize returns the exact number of bytes AppendNormKey writes
// over all rows for the given columns (all columns when cols is nil):
// 8 per numeric value, the escaped length plus terminator per string.
// Key arenas are sized with it, so a build never regrows and never
// zeroes more than it fills.
func (b *Batch) NormKeysSize(cols []int) int {
	size := 0
	add := func(c int) {
		if strs := b.cols[c].strings; strs != nil {
			for _, s := range strs {
				size += len(s) + strings.Count(s, "\x00") + 2
			}
		} else {
			size += 8 * b.n
		}
	}
	if cols == nil {
		for c := range b.cols {
			add(c)
		}
		return size
	}
	for _, c := range cols {
		add(c)
	}
	return size
}
