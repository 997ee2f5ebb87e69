package tuple

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// awkwardFloats are the values on which float key definitions diverge:
// signed zeros, NaNs of either sign bit, infinities, denormals.
var awkwardFloats = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(-1), -math.MaxFloat64, -1.5, -1,
	-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
	1, 1.5, math.MaxFloat64, math.Inf(1),
}

// TestCanNormalizeKeys pins that every column type normalizes: Float
// keys too order and equate exactly as CompareValues does (−0 ≡ +0,
// NaN ≡ NaN and lowest), alone and beside Int and String columns.
func TestCanNormalizeKeys(t *testing.T) {
	for _, a := range awkwardFloats {
		for _, b := range awkwardFloats {
			ta, tb := Tuple{int64(7), a, "s"}, Tuple{int64(7), b, "s"}
			got := sign(bytes.Compare(AppendNormKey(nil, ta, nil, nil), AppendNormKey(nil, tb, nil, nil)))
			if want := Compare(ta, tb, nil, nil); got != want {
				t.Errorf("key order of %v vs %v = %d, Compare = %d", a, b, got, want)
			}
		}
	}
	f := func(a, b float64) bool {
		ka, kb := AppendNormKey(nil, Tuple{a}, nil, nil), AppendNormKey(nil, Tuple{b}, nil, nil)
		return sign(bytes.Compare(ka, kb)) == CompareValues(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestKeysComparable pins cross-schema key comparability: same-typed
// key pairs need no widening (string widths may differ — the encoding
// is width-independent), and an Int column facing a Float column
// encodes as a float on both sides, so the keys compare the way
// CompareValues' int/float promotion does.
func TestKeysComparable(t *testing.T) {
	a := MustSchema(Column{Name: "x", Type: Int}, Column{Name: "y", Type: String, Size: 4})
	b := MustSchema(Column{Name: "p", Type: String, Size: 9}, Column{Name: "q", Type: Int}, Column{Name: "f", Type: Float})
	if w := JoinWiden(a, []int{0, 1}, b, []int{1, 0}); w != nil {
		t.Errorf("int=int, string=string widened: %v", w)
	}
	w := JoinWiden(a, []int{1, 0}, b, []int{0, 2})
	if len(w) != 2 || w[0] || !w[1] {
		t.Fatalf("string=string, int=float: widen = %v, want [false true]", w)
	}
	for _, x := range []int64{-3, 0, 2, 1 << 40} {
		for _, y := range append([]float64{-3, 2, 2.5, 1 << 40}, awkwardFloats...) {
			ka := AppendNormKey(nil, Tuple{x, "k"}, []int{1, 0}, w)
			kb := AppendNormKey(nil, Tuple{"k", int64(0), y}, []int{0, 2}, w)
			if got, want := sign(bytes.Compare(ka, kb)), CompareValues(x, y); got != want {
				t.Errorf("int %d vs float %v: key order %d, CompareValues %d", x, y, got, want)
			}
		}
	}
}

// TestNormKeyMatchesCompare is the load-bearing property: byte order of
// normalized keys equals Compare on the key columns, including strings
// with embedded NULs, shared prefixes and empty values.
func TestNormKeyMatchesCompare(t *testing.T) {
	f := func(ai int64, as string, bi int64, bs string) bool {
		ta := Tuple{ai, as}
		tb := Tuple{bi, bs}
		cols := []int{1, 0} // string-major to stress cross-column boundaries
		ka := AppendNormKey(nil, ta, cols, nil)
		kb := AppendNormKey(nil, tb, cols, nil)
		want := Compare(ta, tb, cols, cols)
		return sign(bytes.Compare(ka, kb)) == sign(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestNormKeyEmbeddedNulBoundary pins the classic multi-column
// ambiguity: a string that is a NUL-extended prefix of another must not
// let the next column's bytes flip the order.
func TestNormKeyEmbeddedNulBoundary(t *testing.T) {
	// ("a", high) vs ("a\x00", low): column-wise "a" < "a\x00".
	ta := Tuple{"a", int64(1 << 40)}
	tb := Tuple{"a\x00", int64(-5)}
	ka := AppendNormKey(nil, ta, nil, nil)
	kb := AppendNormKey(nil, tb, nil, nil)
	if bytes.Compare(ka, kb) >= 0 {
		t.Errorf("embedded-NUL boundary broken: %q vs %q", ka, kb)
	}
	if c := Compare(ta, tb, nil, nil); c >= 0 {
		t.Fatalf("reference Compare = %d, want < 0", c)
	}
}

func TestNormKeyInjective(t *testing.T) {
	// Distinct value lists must get distinct keys (dedup correctness).
	vals := []Tuple{
		{int64(0), ""},
		{int64(0), "\x00"},
		{int64(0), "\x00\x00"},
		{int64(0), "\xff"},
		{int64(-1), ""},
		{int64(1), ""},
	}
	seen := map[string]int{}
	for i, v := range vals {
		k := string(AppendNormKey(nil, v, nil, nil))
		if j, dup := seen[k]; dup {
			t.Errorf("tuples %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
}

func TestNormKeySortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"", "a", "ab", "a\x00", "a\x00b", "b", "\x00", "zz"}
	n := 200
	ts := make([]Tuple, n)
	keys := make([][]byte, n)
	for i := range ts {
		ts[i] = Tuple{rng.Int63n(8) - 4, alphabet[rng.Intn(len(alphabet))]}
		keys[i] = AppendNormKey(nil, ts[i], nil, nil)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := sign(Compare(ts[i], ts[j], nil, nil))
			got := sign(bytes.Compare(keys[i], keys[j]))
			if want != got {
				t.Fatalf("order mismatch %v vs %v: key %d, ref %d", ts[i], ts[j], got, want)
			}
		}
	}
}

// TestNormKeysSize pins the arena sizer against the encoder: for any
// column subset the size is exactly the bytes AppendNormKey writes over
// all rows — NUL escapes, empty strings and an empty batch included.
func TestNormKeysSize(t *testing.T) {
	s := MustSchema(
		Column{Name: "i", Type: Int},
		Column{Name: "s", Type: String, Size: 10},
		Column{Name: "f", Type: Float},
	)
	b := NewBatch(s)
	for _, cols := range [][]int{nil, {0}, {1}, {2, 1}} {
		if got := b.NormKeysSize(cols); got != 0 {
			t.Errorf("empty batch, cols %v: size %d, want 0", cols, got)
		}
	}
	for i, str := range []string{"", "abc", "a\x00b", "\x00\x00", "0123456789"} {
		if err := b.AppendRow(Tuple{int64(i), str, float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]int{nil, {0}, {1}, {2, 1}, {1, 0, 1}} {
		var arena []byte
		for row := 0; row < b.Len(); row++ {
			arena = b.AppendNormKey(arena, row, cols, nil)
		}
		if got := b.NormKeysSize(cols); got != len(arena) {
			t.Errorf("cols %v: NormKeysSize = %d, built arena is %d bytes", cols, got, len(arena))
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}
