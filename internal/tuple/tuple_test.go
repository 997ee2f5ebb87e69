package tuple

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "score", Type: Float},
		Column{Name: "name", Type: String, Size: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
	}{
		{"empty name", []Column{{Name: "", Type: Int}}},
		{"duplicate", []Column{{Name: "a", Type: Int}, {Name: "a", Type: Float}}},
		{"bad string size", []Column{{Name: "s", Type: String, Size: 0}}},
		{"unknown type", []Column{{Name: "x", Type: ColType(99)}}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.cols...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.NumCols() != 3 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	if s.TupleSize() != 8+8+16 {
		t.Errorf("TupleSize = %d, want 32", s.TupleSize())
	}
	if i, ok := s.ColIndex("score"); !ok || i != 1 {
		t.Errorf("ColIndex(score) = %d,%v", i, ok)
	}
	if _, ok := s.ColIndex("nope"); ok {
		t.Error("ColIndex of missing column should be false")
	}
	if s.Col(2).Name != "name" {
		t.Errorf("Col(2) = %+v", s.Col(2))
	}
	cols := s.Columns()
	cols[0].Name = "mutated"
	if s.Col(0).Name != "id" {
		t.Error("Columns() must return a copy")
	}
	if ColType(99).String() == "" || Int.String() != "int" || Float.String() != "float" || String.String() != "string" {
		t.Error("ColType.String misbehaves")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(a) || !a.Equal(b) {
		t.Error("identical schemas should be equal")
	}
	c := MustSchema(Column{Name: "id", Type: Int})
	if a.Equal(c) || a.Equal(nil) {
		t.Error("different schemas should not be equal")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, idx, err := s.Project([]string{"name", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Col(0).Name != "name" || p.Col(1).Name != "id" {
		t.Errorf("projected schema wrong: %+v", p.Columns())
	}
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 0 {
		t.Errorf("projection indices = %v", idx)
	}
	if _, _, err := s.Project([]string{"missing"}); err == nil {
		t.Error("projecting a missing column should error")
	}
}

func TestSchemaConcat(t *testing.T) {
	left := MustSchema(Column{Name: "id", Type: Int}, Column{Name: "a", Type: Int})
	right := MustSchema(Column{Name: "id", Type: Int}, Column{Name: "b", Type: Float})
	j, err := left.Concat(right, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, j.NumCols())
	for i := range names {
		names[i] = j.Col(i).Name
	}
	want := []string{"l.id", "a", "r.id", "b"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("concat names = %v, want %v", names, want)
		}
	}
}

func TestSchemaWithPadding(t *testing.T) {
	s := testSchema(t) // 32 bytes
	p, err := s.WithPadding(200)
	if err != nil {
		t.Fatal(err)
	}
	if p.TupleSize() != 200 {
		t.Errorf("padded size = %d, want 200", p.TupleSize())
	}
	same, err := s.WithPadding(10)
	if err != nil {
		t.Fatal(err)
	}
	if same != s {
		t.Error("padding below current size should return the schema unchanged")
	}
}

func TestValidate(t *testing.T) {
	s := testSchema(t)
	good := Tuple{int64(1), 2.5, "bob"}
	if err := good.Validate(s); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	bad := []Tuple{
		{int64(1), 2.5},                          // arity
		{1, 2.5, "x"},                            // int not int64
		{int64(1), "x", "y"},                     // float type
		{int64(1), 2.5, 42},                      // string type
		{int64(1), 2.5, strings.Repeat("x", 17)}, // overflow width
	}
	for i, tp := range bad {
		if err := tp.Validate(s); err == nil {
			t.Errorf("bad tuple %d accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		name := strings.Repeat("a", rng.Intn(17))
		in := Tuple{rng.Int63() - rng.Int63(), rng.NormFloat64() * 1e6, name}
		buf := in.Encode(s, nil)
		if len(buf) != s.TupleSize() {
			t.Fatalf("encoded %d bytes, want %d", len(buf), s.TupleSize())
		}
		out, rest, err := Decode(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("leftover %d bytes", len(rest))
		}
		if Compare(in, out, nil, nil) != 0 {
			t.Fatalf("round trip mismatch: %v vs %v", in, out)
		}
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	s := testSchema(t)
	if _, _, err := Decode(s, make([]byte, s.TupleSize()-1)); err == nil {
		t.Error("short buffer should error")
	}
}

func TestDecodeMultipleFromStream(t *testing.T) {
	s := MustSchema(Column{Name: "v", Type: Int})
	var buf []byte
	for i := int64(0); i < 5; i++ {
		buf = (Tuple{i}).Encode(s, buf)
	}
	for i := int64(0); i < 5; i++ {
		var tp Tuple
		var err error
		tp, buf, err = Decode(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		if tp[0].(int64) != i {
			t.Fatalf("stream decode got %v at %d", tp[0], i)
		}
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{1.5, 2.5, -1},
		{2.5, 2.5, 0},
		{int64(2), 1.5, 1},
		{1.5, int64(2), -1},
		{int64(2), 2.0, 0},
		{"a", "b", -1},
		{"b", "b", 0},
		{"c", "b", 1},
		// Floats order as cmp.Compare does: −0 ≡ +0, NaN ≡ NaN and lowest.
		{math.Copysign(0, -1), 0.0, 0},
		{math.NaN(), math.NaN(), 0},
		{math.NaN(), math.Inf(-1), -1},
		{1.0, math.NaN(), 1},
		{int64(0), math.NaN(), 1},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareValuesPanicsOnMixedTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("comparing string to int should panic")
		}
	}()
	CompareValues("a", int64(1))
}

func TestCompareTuples(t *testing.T) {
	a := Tuple{int64(1), "x"}
	b := Tuple{int64(1), "y"}
	if Compare(a, b, nil, nil) != -1 {
		t.Error("lexicographic compare failed")
	}
	// Column-directed comparison across different schemas.
	c := Tuple{"x", int64(1)}
	if Compare(a, c, []int{0}, []int{1}) != 0 {
		t.Error("cross-column compare failed")
	}
	// Prefix ordering: shorter tuple sorts first.
	if Compare(Tuple{int64(1)}, a, nil, nil) != -1 {
		t.Error("prefix compare failed")
	}
	if Compare(a, Tuple{int64(1)}, nil, nil) != 1 {
		t.Error("prefix compare failed (long side)")
	}
}

// key is the map-key form of a tuple's normalized key (what the exact
// evaluator hashes on).
func key(t Tuple, cols []int) string { return string(AppendNormKey(nil, t, cols, nil)) }

func TestKeyDistinguishesValues(t *testing.T) {
	a := Tuple{int64(1), 2.0, "ab"}
	b := Tuple{int64(1), 2.0, "ab"}
	c := Tuple{int64(1), 2.0, "ac"}
	if key(a, nil) != key(b, nil) {
		t.Error("equal tuples must share keys")
	}
	if key(a, nil) == key(c, nil) {
		t.Error("distinct tuples must have distinct keys")
	}
	// Projected key only looks at chosen columns.
	if key(a, []int{0, 1}) != key(c, []int{0, 1}) {
		t.Error("projected keys should match when projected values match")
	}
}

func TestKeyOrderPreservingForInts(t *testing.T) {
	// The int encoding inside Key is order-preserving (sign-flipped
	// big-endian); verify with random pairs.
	f := func(a, b int64) bool {
		ka := key(Tuple{a}, nil)
		kb := key(Tuple{b}, nil)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKeyNoCollisionAcrossTypesOrBoundaries(t *testing.T) {
	// ("ab","c") vs ("a","bc") must not collide thanks to terminators.
	x := Tuple{"ab", "c"}
	y := Tuple{"a", "bc"}
	if key(x, nil) == key(y, nil) {
		t.Error("string boundary collision in Key")
	}
}

func TestProjectConcatClone(t *testing.T) {
	tp := Tuple{int64(1), 2.5, "z"}
	p := tp.Project([]int{2, 0})
	if len(p) != 2 || p[0] != "z" || p[1] != int64(1) {
		t.Errorf("Project = %v", p)
	}
	q := tp.Concat(Tuple{int64(9)})
	if len(q) != 4 || q[3] != int64(9) {
		t.Errorf("Concat = %v", q)
	}
	c := tp.Clone()
	c[0] = int64(99)
	if tp[0] != int64(1) {
		t.Error("Clone must not alias")
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{int64(1), "x"}.String()
	if got != "(1, x)" {
		t.Errorf("String = %q", got)
	}
}

func TestEncodeDecodePropertyRandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		ncols := 1 + rng.Intn(6)
		cols := make([]Column, ncols)
		for i := range cols {
			switch rng.Intn(3) {
			case 0:
				cols[i] = Column{Name: colName(i), Type: Int}
			case 1:
				cols[i] = Column{Name: colName(i), Type: Float}
			default:
				cols[i] = Column{Name: colName(i), Type: String, Size: 1 + rng.Intn(12)}
			}
		}
		s, err := NewSchema(cols...)
		if err != nil {
			t.Fatal(err)
		}
		tp := make(Tuple, ncols)
		for i, c := range cols {
			switch c.Type {
			case Int:
				tp[i] = rng.Int63n(1e9) - 5e8
			case Float:
				tp[i] = math.Round(rng.NormFloat64()*1000) / 4
			case String:
				tp[i] = strings.Repeat("q", rng.Intn(c.Size+1))
			}
		}
		buf := tp.Encode(s, nil)
		got, _, err := Decode(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		if Compare(tp, got, nil, nil) != 0 {
			t.Fatalf("round trip mismatch: %v vs %v (schema %v)", tp, got, cols)
		}
	}
}

func colName(i int) string { return string(rune('a' + i)) }
