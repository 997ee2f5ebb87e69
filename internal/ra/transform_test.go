package ra

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tcq/internal/tuple"
)

func TestTermsSelectOnlyIsIdentity(t *testing.T) {
	m := testRels()
	e := &Select{&Base{"r"}, &Cmp{Col{"v"}, Lt, Const{int64(25)}}}
	terms, err := Terms(e, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0].Sign != 1 || len(terms[0].Atoms) != 1 {
		t.Fatalf("terms = %v", terms)
	}
	if terms[0].Expr().String() != e.String() {
		t.Errorf("term expr = %s", terms[0].Expr())
	}
}

func TestTermsUnion(t *testing.T) {
	m := testRels()
	terms, err := Terms(&Union{&Base{"r"}, &Base{"s"}}, m)
	if err != nil {
		t.Fatal(err)
	}
	// count(r ∪ s) = count(r) + count(s) − count(r ∩ s).
	if len(terms) != 3 {
		t.Fatalf("union should give 3 terms, got %v", terms)
	}
	signs := map[string]int{}
	for _, tm := range terms {
		signs[tm.Expr().String()] = tm.Sign
	}
	if signs["r"] != 1 || signs["s"] != 1 || signs["intersect(r, s)"] != -1 {
		t.Errorf("signs = %v", signs)
	}
}

func TestTermsDifference(t *testing.T) {
	m := testRels()
	terms, err := Terms(&Difference{&Base{"r"}, &Base{"s"}}, m)
	if err != nil {
		t.Fatal(err)
	}
	// count(r − s) = count(r) − count(r ∩ s).
	if len(terms) != 2 {
		t.Fatalf("difference should give 2 terms, got %v", terms)
	}
}

func TestTermsIdempotence(t *testing.T) {
	m := testRels()
	// r ∩ r must collapse to the single atom r.
	terms, err := Terms(&Intersect{[]Expr{&Base{"r"}, &Base{"r"}}}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0].Expr().String() != "r" || terms[0].Sign != 1 {
		t.Errorf("r ∩ r terms = %v", terms)
	}
	// r ∪ r must also collapse: +r +r −r = +r.
	terms, err = Terms(&Union{&Base{"r"}, &Base{"r"}}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0].Sign != 1 {
		t.Errorf("r ∪ r terms = %v", terms)
	}
}

func TestTermsPushdownSelectOverUnion(t *testing.T) {
	m := testRels()
	p := &Cmp{Col{"v"}, Lt, Const{int64(100)}}
	e := &Select{&Union{&Base{"r"}, &Base{"s"}}, p}
	terms, err := Terms(e, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range terms {
		for _, a := range tm.Atoms {
			if HasSetOps(a) {
				t.Fatalf("atom %s still has set ops", a)
			}
			if _, ok := a.(*Select); !ok {
				t.Fatalf("expected selects pushed into atoms, got %s", a)
			}
		}
	}
}

func TestTermsJoinOverSetOps(t *testing.T) {
	m := testRels()
	e := &Join{
		&Difference{&Base{"r"}, &Base{"s"}},
		&Base{"u"},
		[]JoinCond{{"id", "k"}},
	}
	terms, err := Terms(e, m)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CountExact(e, m)
	if err != nil {
		t.Fatal(err)
	}
	viaTerms, err := CountTermsExact(terms, m)
	if err != nil {
		t.Fatal(err)
	}
	if direct != viaTerms {
		t.Errorf("join-over-diff: direct %d, terms %d", direct, viaTerms)
	}
}

func TestTermsProjectOverUnionAllowed(t *testing.T) {
	m := testRels()
	e := &Project{&Union{&Base{"r"}, &Base{"s"}}, []string{"id"}}
	terms, err := Terms(e, m)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := CountExact(e, m)
	viaTerms, _ := CountTermsExact(terms, m)
	if direct != viaTerms {
		t.Errorf("project-over-union: direct %d, terms %d", direct, viaTerms)
	}
}

func TestTermsProjectOverDifferenceUnsupported(t *testing.T) {
	m := testRels()
	e := &Project{&Difference{&Base{"r"}, &Base{"s"}}, []string{"id"}}
	_, err := Terms(e, m)
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("expected ErrUnsupported, got %v", err)
	}
	e2 := &Project{&Intersect{[]Expr{&Base{"r"}, &Base{"s"}}}, []string{"id"}}
	if _, err := Terms(e2, m); !errors.Is(err, ErrUnsupported) {
		t.Errorf("expected ErrUnsupported for project over intersect, got %v", err)
	}
}

func TestTermsValidatesExpression(t *testing.T) {
	m := testRels()
	if _, err := Terms(&Base{"missing"}, m); err == nil {
		t.Error("Terms must validate the expression against the catalog")
	}
}

func TestTermStringRendersSign(t *testing.T) {
	tm := Term{Sign: -1, Atoms: []Expr{&Base{"r"}}}
	if tm.String() != "-1·count(r)" {
		t.Errorf("Term.String = %q", tm.String())
	}
	tm2 := Term{Sign: 2, Atoms: []Expr{&Base{"r"}, &Base{"s"}}}
	if tm2.String() != "+2·count(intersect(r, s))" {
		t.Errorf("Term.String = %q", tm2.String())
	}
}

// randomExpr builds a random expression over three union-compatible
// relations a, b, c with integer columns id, v.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return &Base{[]string{"a", "b", "c"}[rng.Intn(3)]}
	}
	switch rng.Intn(6) {
	case 0:
		return &Select{
			Input: randomExpr(rng, depth-1),
			Pred:  &Cmp{Col{"v"}, CmpOp(rng.Intn(6)), Const{int64(rng.Intn(40))}},
		}
	case 1:
		return &Union{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 2:
		return &Difference{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	case 3:
		return &Intersect{[]Expr{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}}
	case 4:
		// Nested select to vary shapes.
		return &Select{
			Input: randomExpr(rng, depth-1),
			Pred: &And{
				&Cmp{Col{"id"}, Ge, Const{int64(rng.Intn(10))}},
				&Cmp{Col{"v"}, Lt, Const{int64(rng.Intn(60))}},
			},
		}
	default:
		return &Base{[]string{"a", "b", "c"}[rng.Intn(3)]}
	}
}

// TestTermsInclusionExclusionProperty is the core correctness property:
// for random expressions and random data, the signed sum of exact counts
// over the SJIP terms equals the exact count of the original expression.
func TestTermsInclusionExclusionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "v", Type: tuple.Int},
	)
	for trial := 0; trial < 120; trial++ {
		m := NewMapRelations()
		for _, name := range []string{"a", "b", "c"} {
			n := rng.Intn(30)
			seen := map[string]bool{}
			var ts []tuple.Tuple
			for len(ts) < n {
				tp := tuple.Tuple{int64(rng.Intn(15)), int64(rng.Intn(50))}
				k := hashKey(tp, nil, nil)
				if seen[k] {
					continue
				}
				seen[k] = true
				ts = append(ts, tp)
			}
			m.Add(name, sch, ts)
		}
		e := randomExpr(rng, 1+rng.Intn(3))
		terms, err := Terms(e, m)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, e, err)
		}
		direct, err := CountExact(e, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		viaTerms, err := CountTermsExact(terms, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if direct != viaTerms {
			t.Fatalf("trial %d: %s\n direct=%d terms=%d\n terms: %s",
				trial, e, direct, viaTerms, fmt.Sprint(terms))
		}
	}
}

// TestTermsDeterministic ensures the canonical form is stable: the same
// expression always yields the same term list.
func TestTermsDeterministic(t *testing.T) {
	m := testRels()
	e := &Union{
		&Difference{&Base{"r"}, &Base{"s"}},
		&Intersect{[]Expr{&Base{"s"}, &Base{"r"}}},
	}
	t1, err := Terms(e, m)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := Terms(e, m)
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Errorf("terms not deterministic:\n%v\n%v", t1, t2)
	}
}

// TestTermsProjectionWrapProperty: wrapping a random expression in a
// projection either decomposes correctly (count via terms == direct
// count) or is rejected with ErrUnsupported — and rejection only
// happens when the projection sits above a difference/intersection.
func TestTermsProjectionWrapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "v", Type: tuple.Int},
	)
	for trial := 0; trial < 80; trial++ {
		m := NewMapRelations()
		for _, name := range []string{"a", "b", "c"} {
			n := rng.Intn(25)
			seen := map[string]bool{}
			var ts []tuple.Tuple
			for len(ts) < n {
				tp := tuple.Tuple{int64(rng.Intn(12)), int64(rng.Intn(40))}
				k := hashKey(tp, nil, nil)
				if seen[k] {
					continue
				}
				seen[k] = true
				ts = append(ts, tp)
			}
			m.Add(name, sch, ts)
		}
		inner := randomExpr(rng, 1+rng.Intn(2))
		e := &Project{Input: inner, Cols: []string{"id"}}
		terms, err := Terms(e, m)
		if err != nil {
			if !errors.Is(err, ErrUnsupported) {
				t.Fatalf("trial %d: unexpected error kind: %v", trial, err)
			}
			continue // rejection is a legal outcome for diff/intersect inputs
		}
		direct, err := CountExact(e, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		viaTerms, err := CountTermsExact(terms, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if direct != viaTerms {
			t.Fatalf("trial %d: project wrap: direct %d, terms %d (%s)", trial, direct, viaTerms, e)
		}
	}
}
