// Package tuple defines schemas and tuples for the tcq mini-DBMS.
//
// Tuples are fixed-size records, matching the paper's experimental setup
// (200-byte tuples, 5 per 1 KB disk block). A schema declares typed,
// named columns; string columns carry a fixed byte width so that every
// tuple of a relation encodes to exactly Schema.TupleSize bytes.
package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// ColType enumerates the supported column types.
type ColType int

const (
	// Int is a 64-bit signed integer column (8 bytes).
	Int ColType = iota
	// Float is a 64-bit IEEE-754 column (8 bytes).
	Float
	// String is a fixed-width byte string column (Size bytes,
	// zero-padded; embedded NUL bytes terminate the logical value).
	String
)

// String returns the type name.
func (t ColType) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type ColType
	Size int // byte width; meaningful for String columns only
}

// width returns the encoded byte width of the column.
func (c Column) width() int {
	switch c.Type {
	case Int, Float:
		return 8
	case String:
		return c.Size
	default:
		return 0
	}
}

// Schema is an ordered list of columns. Schemas are immutable once built;
// share them freely.
type Schema struct {
	cols  []Column
	index map[string]int
	size  int
}

// NewSchema builds a schema from columns. It returns an error on
// duplicate or empty column names, or on a String column with a
// non-positive size.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tuple: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate column %q", c.Name)
		}
		if c.Type == String && c.Size <= 0 {
			return nil, fmt.Errorf("tuple: string column %q needs positive size", c.Name)
		}
		if c.Type != Int && c.Type != Float && c.Type != String {
			return nil, fmt.Errorf("tuple: column %q has unknown type %d", c.Name, int(c.Type))
		}
		s.index[c.Name] = i
		s.cols = append(s.cols, c)
		s.size += c.width()
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the index of the named column and whether it exists.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// TupleSize returns the fixed encoded size of a tuple in bytes.
func (s *Schema) TupleSize() int { return s.size }

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Project returns a new schema with only the named columns, in the given
// order, along with the source indices of those columns.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	cols := make([]Column, 0, len(names))
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, nil, fmt.Errorf("tuple: unknown column %q", n)
		}
		cols = append(cols, s.cols[i])
		idx = append(idx, i)
	}
	out, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return out, idx, nil
}

// Concat returns the schema of a joined tuple: s's columns followed by
// o's. Name clashes are disambiguated with the given prefixes (applied
// as "prefix.name") only where a clash occurs.
func (s *Schema) Concat(o *Schema, leftPrefix, rightPrefix string) (*Schema, error) {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	seen := make(map[string]bool, len(s.cols))
	for _, c := range s.cols {
		seen[c.Name] = true
		cols = append(cols, c)
	}
	for _, c := range o.cols {
		if seen[c.Name] {
			lc := c
			lc.Name = rightPrefix + "." + c.Name
			// Also rename the left occurrence if not already prefixed.
			for i := range cols {
				if cols[i].Name == c.Name {
					cols[i].Name = leftPrefix + "." + c.Name
				}
			}
			cols = append(cols, lc)
			continue
		}
		cols = append(cols, c)
	}
	return NewSchema(cols...)
}

// WithPadding returns a copy of the schema extended with an unnamed
// padding string column so that TupleSize reaches total bytes. If the
// schema is already at least total bytes wide it is returned unchanged.
func (s *Schema) WithPadding(total int) (*Schema, error) {
	if s.size >= total {
		return s, nil
	}
	cols := s.Columns()
	cols = append(cols, Column{Name: "_pad", Type: String, Size: total - s.size})
	return NewSchema(cols...)
}

// Value is one field of a tuple: int64, float64 or string depending on
// the column type.
type Value interface{}

// Tuple is an ordered list of values conforming to some schema.
type Tuple []Value

// Validate checks that the tuple conforms to the schema.
func (t Tuple) Validate(s *Schema) error {
	if len(t) != len(s.cols) {
		return fmt.Errorf("tuple: arity %d, schema wants %d", len(t), len(s.cols))
	}
	for i, c := range s.cols {
		switch c.Type {
		case Int:
			if _, ok := t[i].(int64); !ok {
				return fmt.Errorf("tuple: column %q wants int64, got %T", c.Name, t[i])
			}
		case Float:
			if _, ok := t[i].(float64); !ok {
				return fmt.Errorf("tuple: column %q wants float64, got %T", c.Name, t[i])
			}
		case String:
			v, ok := t[i].(string)
			if !ok {
				return fmt.Errorf("tuple: column %q wants string, got %T", c.Name, t[i])
			}
			if len(v) > c.Size {
				return fmt.Errorf("tuple: column %q value %d bytes exceeds width %d", c.Name, len(v), c.Size)
			}
		}
	}
	return nil
}

// Encode appends the fixed-size binary encoding of the tuple to dst and
// returns the extended slice. The tuple must be valid for the schema.
func (t Tuple) Encode(s *Schema, dst []byte) []byte {
	for i, c := range s.cols {
		switch c.Type {
		case Int:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(t[i].(int64)))
		case Float:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t[i].(float64)))
		case String:
			v := t[i].(string)
			dst = append(dst, v...)
			for p := len(v); p < c.Size; p++ {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// Decode parses one tuple from src, which must hold at least
// s.TupleSize() bytes. It returns the tuple and the remaining bytes.
func Decode(s *Schema, src []byte) (Tuple, []byte, error) {
	if len(src) < s.size {
		return nil, src, fmt.Errorf("tuple: short buffer: %d < %d", len(src), s.size)
	}
	t := make(Tuple, len(s.cols))
	for i, c := range s.cols {
		switch c.Type {
		case Int:
			t[i] = int64(binary.LittleEndian.Uint64(src))
			src = src[8:]
		case Float:
			t[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
		case String:
			raw := src[:c.Size]
			src = src[c.Size:]
			if j := indexByte(raw, 0); j >= 0 {
				raw = raw[:j]
			}
			t[i] = string(raw)
		}
	}
	return t, src, nil
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// CompareValues orders two values of the same column type. It returns
// -1, 0 or +1. Mixed int/float comparisons promote to float64. Floats
// order the way cmp.Compare does — −0 equals +0, NaN equals NaN and
// sorts below every other value — which is the order (and equality) the
// normalized keys of key.go encode.
func CompareValues(a, b Value) int {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmp.Compare(av, bv)
		case float64:
			return cmp.Compare(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			return cmp.Compare(av, bv)
		case int64:
			return cmp.Compare(av, float64(bv))
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv)
		}
	}
	panic(fmt.Sprintf("tuple: incomparable values %T and %T", a, b))
}

// Compare orders two tuples lexicographically over the given column
// indices of each side (colsA on a, colsB on b; the slices must have the
// same length). Nil column slices compare all columns positionally.
func Compare(a, b Tuple, colsA, colsB []int) int {
	if colsA == nil {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if c := CompareValues(a[i], b[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(a) < len(b):
			return -1
		case len(a) > len(b):
			return 1
		}
		return 0
	}
	for i := range colsA {
		if c := CompareValues(a[colsA[i]], b[colsB[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// Project returns a new tuple holding the values at the given indices.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation of two tuples (for join outputs).
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Clone returns a shallow copy of the tuple (values are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%v", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
