package ra

import (
	"fmt"

	"tcq/internal/tuple"
)

// Relations supplies the tuples of base relations for exact evaluation.
// Relations are assumed duplicate-free (set semantics), as in the
// paper's point-space model.
type Relations interface {
	Catalog
	RelationTuples(name string) ([]tuple.Tuple, error)
}

// MapRelations is an in-memory Relations implementation for tests,
// examples and exact ground-truth evaluation.
type MapRelations struct {
	Schemas map[string]*tuple.Schema
	Tuples  map[string][]tuple.Tuple
}

// NewMapRelations returns an empty MapRelations.
func NewMapRelations() *MapRelations {
	return &MapRelations{
		Schemas: map[string]*tuple.Schema{},
		Tuples:  map[string][]tuple.Tuple{},
	}
}

// Add registers a relation.
func (m *MapRelations) Add(name string, schema *tuple.Schema, ts []tuple.Tuple) {
	m.Schemas[name] = schema
	m.Tuples[name] = ts
}

// RelationSchema implements Catalog.
func (m *MapRelations) RelationSchema(name string) (*tuple.Schema, error) {
	s, ok := m.Schemas[name]
	if !ok {
		return nil, fmt.Errorf("ra: unknown relation %q", name)
	}
	return s, nil
}

// RelationTuples implements Relations.
func (m *MapRelations) RelationTuples(name string) ([]tuple.Tuple, error) {
	ts, ok := m.Tuples[name]
	if !ok {
		return nil, fmt.Errorf("ra: unknown relation %q", name)
	}
	return ts, nil
}

// EvalExact evaluates e completely (no sampling) with set semantics and
// returns the output tuples. It is the reference implementation the
// sampled executors and estimators are tested against, and supplies
// ground truth for the experiment harness.
func EvalExact(e Expr, rels Relations) ([]tuple.Tuple, error) {
	if _, err := e.Schema(rels); err != nil {
		return nil, err
	}
	return evalExact(e, rels)
}

// CountExact returns len(EvalExact(e)).
func CountExact(e Expr, rels Relations) (int64, error) {
	ts, err := EvalExact(e, rels)
	if err != nil {
		return 0, err
	}
	return int64(len(ts)), nil
}

func evalExact(e Expr, rels Relations) ([]tuple.Tuple, error) {
	switch v := e.(type) {
	case *Base:
		return rels.RelationTuples(v.Name)

	case *Select:
		in, err := evalExact(v.Input, rels)
		if err != nil {
			return nil, err
		}
		sch, err := v.Input.Schema(rels)
		if err != nil {
			return nil, err
		}
		pred, err := Compile(v.Pred, sch)
		if err != nil {
			return nil, err
		}
		var out []tuple.Tuple
		for _, t := range in {
			if pred(t) {
				out = append(out, t)
			}
		}
		return out, nil

	case *Project:
		in, err := evalExact(v.Input, rels)
		if err != nil {
			return nil, err
		}
		sch, err := v.Input.Schema(rels)
		if err != nil {
			return nil, err
		}
		_, idx, err := sch.Project(v.Cols)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out []tuple.Tuple
		for _, t := range in {
			p := t.Project(idx)
			k := hashKey(p, nil, nil)
			if !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
		return out, nil

	case *Join:
		l, err := evalExact(v.Left, rels)
		if err != nil {
			return nil, err
		}
		r, err := evalExact(v.Right, rels)
		if err != nil {
			return nil, err
		}
		ls, err := v.Left.Schema(rels)
		if err != nil {
			return nil, err
		}
		rs, err := v.Right.Schema(rels)
		if err != nil {
			return nil, err
		}
		lcols, rcols, err := JoinCols(v.On, ls, rs)
		if err != nil {
			return nil, err
		}
		// Hash join on the left side for the exact evaluator.
		widen := tuple.JoinWiden(ls, lcols, rs, rcols)
		index := map[string][]tuple.Tuple{}
		for _, lt := range l {
			k := hashKey(lt, lcols, widen)
			index[k] = append(index[k], lt)
		}
		var out []tuple.Tuple
		for _, rt := range r {
			k := hashKey(rt, rcols, widen)
			for _, lt := range index[k] {
				out = append(out, lt.Concat(rt))
			}
		}
		return out, nil

	case *Union:
		l, err := evalExact(v.Left, rels)
		if err != nil {
			return nil, err
		}
		r, err := evalExact(v.Right, rels)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out []tuple.Tuple
		for _, t := range append(append([]tuple.Tuple{}, l...), r...) {
			k := hashKey(t, nil, nil)
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
		return out, nil

	case *Difference:
		l, err := evalExact(v.Left, rels)
		if err != nil {
			return nil, err
		}
		r, err := evalExact(v.Right, rels)
		if err != nil {
			return nil, err
		}
		drop := map[string]bool{}
		for _, t := range r {
			drop[hashKey(t, nil, nil)] = true
		}
		var out []tuple.Tuple
		for _, t := range l {
			if !drop[hashKey(t, nil, nil)] {
				out = append(out, t)
			}
		}
		return out, nil

	case *Intersect:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("ra: intersect with no inputs")
		}
		cur, err := evalExact(v.Inputs[0], rels)
		if err != nil {
			return nil, err
		}
		for _, in := range v.Inputs[1:] {
			next, err := evalExact(in, rels)
			if err != nil {
				return nil, err
			}
			keep := map[string]bool{}
			for _, t := range next {
				keep[hashKey(t, nil, nil)] = true
			}
			var out []tuple.Tuple
			for _, t := range cur {
				if keep[hashKey(t, nil, nil)] {
					out = append(out, t)
				}
			}
			cur = out
		}
		return cur, nil

	default:
		return nil, fmt.Errorf("ra: unknown expression type %T", e)
	}
}

// hashKey identifies t's values on cols (all columns when nil) for map
// lookups: the normalized key of internal/tuple, so the exact evaluator
// equates exactly the values CompareValues — and the sampled executors'
// byte keys — equate.
func hashKey(t tuple.Tuple, cols []int, widen []bool) string {
	return string(tuple.AppendNormKey(nil, t, cols, widen))
}

// JoinCols resolves join conditions to column index lists on each side.
func JoinCols(on []JoinCond, ls, rs *tuple.Schema) (lcols, rcols []int, err error) {
	for _, c := range on {
		li, ok := ls.ColIndex(c.LeftCol)
		if !ok {
			return nil, nil, fmt.Errorf("ra: join: unknown left column %q", c.LeftCol)
		}
		ri, ok := rs.ColIndex(c.RightCol)
		if !ok {
			return nil, nil, fmt.Errorf("ra: join: unknown right column %q", c.RightCol)
		}
		lcols = append(lcols, li)
		rcols = append(rcols, ri)
	}
	return lcols, rcols, nil
}

// SumExact evaluates SUM(e.col) exactly: the sum of the named numeric
// column over e's (set-semantics) output tuples.
func SumExact(e Expr, col string, rels Relations) (float64, error) {
	sch, err := e.Schema(rels)
	if err != nil {
		return 0, err
	}
	i, ok := sch.ColIndex(col)
	if !ok {
		return 0, fmt.Errorf("ra: unknown column %q", col)
	}
	out, err := evalExact(e, rels)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range out {
		switch v := t[i].(type) {
		case int64:
			total += float64(v)
		case float64:
			total += v
		default:
			return 0, fmt.Errorf("ra: column %q is not numeric", col)
		}
	}
	return total, nil
}

// GroupCountExact evaluates the per-group COUNT of e's output over the
// named column, exactly.
func GroupCountExact(e Expr, col string, rels Relations) (map[tuple.Value]int64, error) {
	sch, err := e.Schema(rels)
	if err != nil {
		return nil, err
	}
	i, ok := sch.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("ra: unknown column %q", col)
	}
	out, err := evalExact(e, rels)
	if err != nil {
		return nil, err
	}
	groups := map[tuple.Value]int64{}
	for _, t := range out {
		groups[t[i]]++
	}
	return groups, nil
}

// CountTermsExact evaluates the signed SJIP decomposition of COUNT(e)
// exactly and returns the signed sum — used to verify the transform.
func CountTermsExact(terms []Term, rels Relations) (int64, error) {
	var total int64
	for _, t := range terms {
		c, err := CountExact(t.Expr(), rels)
		if err != nil {
			return 0, err
		}
		total += int64(t.Sign) * c
	}
	return total, nil
}
