package core

import (
	"math"
	"testing"

	"tcq/internal/ra"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// TestFloatKeyCensusMatchesExact is the regression test for the
// key-equality split: the sampled executors (normalized byte keys, or
// CompareValues on the old Float fallback path) and the exact evaluator
// (its own hash keys) used to define equality of Float keys
// differently, so a census — a sample of everything — could disagree
// with the exact count. With the one key definition in internal/tuple
// (−0 ≡ +0, NaN ≡ NaN, Int=Float compared as floats) the census count
// of join, intersect and project equals the exact count on every row
// set.
func TestFloatKeyCensusMatchesExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	fsch := tuple.MustSchema(tuple.Column{Name: "k", Type: tuple.Float})
	isch := tuple.MustSchema(tuple.Column{Name: "k", Type: tuple.Int})
	floats := func(vs ...float64) []tuple.Tuple {
		ts := make([]tuple.Tuple, len(vs))
		for i, v := range vs {
			ts[i] = tuple.Tuple{v}
		}
		return ts
	}
	ints := func(vs ...int64) []tuple.Tuple {
		ts := make([]tuple.Tuple, len(vs))
		for i, v := range vs {
			ts[i] = tuple.Tuple{v}
		}
		return ts
	}
	join := &ra.Join{Left: &ra.Base{Name: "l"}, Right: &ra.Base{Name: "r"},
		On: []ra.JoinCond{{LeftCol: "k", RightCol: "k"}}}
	intersect := &ra.Intersect{Inputs: []ra.Expr{&ra.Base{Name: "l"}, &ra.Base{Name: "r"}}}
	project := &ra.Project{Input: &ra.Base{Name: "l"}, Cols: []string{"k"}}

	cases := []struct {
		name   string
		ls, rs *tuple.Schema
		l, r   []tuple.Tuple
		want   map[ra.Expr]int64
	}{
		{"plain values", fsch, fsch, floats(1.5, 2.5, 3), floats(2.5, 3, 4),
			map[ra.Expr]int64{join: 2, intersect: 2, project: 3}},
		{"+0/-0 pair", fsch, fsch, floats(0, 7), floats(negZero, 8),
			map[ra.Expr]int64{join: 1, intersect: 1, project: 2}},
		{"+0 and -0 are one projected value", fsch, fsch, floats(0, negZero, 7), floats(8),
			map[ra.Expr]int64{join: 0, intersect: 0, project: 2}},
		{"NaN row", fsch, fsch, floats(nan, 1), floats(nan, 2),
			map[ra.Expr]int64{join: 1, intersect: 1, project: 2}},
		{"Int=Float condition", isch, fsch, ints(1, 2, 3), floats(2, 3.5, 3, nan),
			map[ra.Expr]int64{join: 2}},
	}
	for _, c := range cases {
		st := storage.NewStore(vclock.NewSim(1, 0), storage.SunProfile(), storage.DefaultBlockSize)
		for _, rel := range []struct {
			name string
			sch  *tuple.Schema
			ts   []tuple.Tuple
		}{{"l", c.ls, c.l}, {"r", c.rs, c.r}} {
			r, err := st.CreateRelation(rel.name, rel.sch)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.AppendAll(rel.ts); err != nil {
				t.Fatal(err)
			}
		}
		eng := NewEngine(st)
		for _, e := range []ra.Expr{join, intersect, project} {
			want, ok := c.want[e]
			if !ok {
				continue
			}
			exact, err := eng.ExactCount(e)
			if err != nil {
				t.Fatalf("%s: %s: exact: %v", c.name, e, err)
			}
			census, err := eng.FullScanCount(e)
			if err != nil {
				t.Fatalf("%s: %s: census: %v", c.name, e, err)
			}
			if exact != want || census != want {
				t.Errorf("%s: %s: exact %d, census %d, want %d", c.name, e, exact, census, want)
			}
		}
	}
}
