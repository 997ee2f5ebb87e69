package ra

import (
	"fmt"

	"tcq/internal/tuple"
)

// BatchPred is a predicate bound to a schema and vectorized over
// column slices: it fills out[i] with the predicate's value on row i of
// the batch (len(out) must equal b.Len()). For every schema and
// predicate accepted by Compile, CompileBatch accepts too and the two
// agree row-for-row: the executors scan with this form, the exact
// reference evaluator (EvalExact) with the scalar one.
type BatchPred func(b *tuple.Batch, out []bool)

// CompileBatch binds p to schema as a vectorized predicate. Comparisons
// between Int columns and integer constants (the workload's hot shape)
// compile to tight typed loops; every other comparison falls back to a
// per-row kernel with exactly Compile's CompareValues semantics
// (float order and int/float promotion included).
func CompileBatch(p Pred, schema *tuple.Schema) (BatchPred, error) {
	switch q := p.(type) {
	case True, *True:
		return func(_ *tuple.Batch, out []bool) {
			for i := range out {
				out[i] = true
			}
		}, nil
	case *Cmp:
		return compileBatchCmp(q, schema)
	case *And:
		l, err := CompileBatch(q.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := CompileBatch(q.R, schema)
		if err != nil {
			return nil, err
		}
		var scratch []bool
		return func(b *tuple.Batch, out []bool) {
			l(b, out)
			if cap(scratch) < len(out) {
				scratch = make([]bool, len(out))
			}
			s := scratch[:len(out)]
			r(b, s)
			for i := range out {
				out[i] = out[i] && s[i]
			}
		}, nil
	case *Or:
		l, err := CompileBatch(q.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := CompileBatch(q.R, schema)
		if err != nil {
			return nil, err
		}
		var scratch []bool
		return func(b *tuple.Batch, out []bool) {
			l(b, out)
			if cap(scratch) < len(out) {
				scratch = make([]bool, len(out))
			}
			s := scratch[:len(out)]
			r(b, s)
			for i := range out {
				out[i] = out[i] || s[i]
			}
		}, nil
	case *Not:
		inner, err := CompileBatch(q.P, schema)
		if err != nil {
			return nil, err
		}
		return func(b *tuple.Batch, out []bool) {
			inner(b, out)
			for i := range out {
				out[i] = !out[i]
			}
		}, nil
	default:
		return nil, fmt.Errorf("ra: unknown predicate type %T", p)
	}
}

// batchSide is one compiled operand: a column index, or a constant.
type batchSide struct {
	col int // -1 for constants
	val tuple.Value
}

func compileBatchSide(o Operand, schema *tuple.Schema) (batchSide, error) {
	switch v := o.(type) {
	case Col:
		i, ok := schema.ColIndex(v.Name)
		if !ok {
			return batchSide{}, fmt.Errorf("ra: unknown column %q (schema has %s)", v.Name, schemaCols(schema))
		}
		return batchSide{col: i}, nil
	case Const:
		switch val := v.Value.(type) {
		case int64, float64, string:
			return batchSide{col: -1, val: val}, nil
		case int:
			return batchSide{col: -1, val: int64(val)}, nil
		default:
			return batchSide{}, fmt.Errorf("ra: unsupported constant type %T", val)
		}
	default:
		return batchSide{}, fmt.Errorf("ra: unknown operand type %T", o)
	}
}

func compileBatchCmp(q *Cmp, schema *tuple.Schema) (BatchPred, error) {
	l, err := compileBatchSide(q.Left, schema)
	if err != nil {
		return nil, err
	}
	r, err := compileBatchSide(q.Right, schema)
	if err != nil {
		return nil, err
	}
	// Any CmpOp is fully described by its value on the three comparison
	// outcomes, which lets one kernel serve all six operators.
	mLt, mEq, mGt := q.Op.matches(-1), q.Op.matches(0), q.Op.matches(1)
	pick := func(c int) bool {
		switch {
		case c < 0:
			return mLt
		case c > 0:
			return mGt
		default:
			return mEq
		}
	}
	isInt := func(s batchSide) bool {
		if s.col >= 0 {
			return schema.Col(s.col).Type == tuple.Int
		}
		_, ok := s.val.(int64)
		return ok
	}
	if isInt(l) && isInt(r) {
		switch {
		case l.col >= 0 && r.col < 0:
			c := r.val.(int64)
			return func(b *tuple.Batch, out []bool) {
				for i, x := range b.Ints(l.col) {
					switch {
					case x < c:
						out[i] = mLt
					case x > c:
						out[i] = mGt
					default:
						out[i] = mEq
					}
				}
			}, nil
		case l.col < 0 && r.col >= 0:
			c := l.val.(int64)
			return func(b *tuple.Batch, out []bool) {
				for i, y := range b.Ints(r.col) {
					switch {
					case c < y:
						out[i] = mLt
					case c > y:
						out[i] = mGt
					default:
						out[i] = mEq
					}
				}
			}, nil
		case l.col >= 0 && r.col >= 0:
			return func(b *tuple.Batch, out []bool) {
				xs, ys := b.Ints(l.col), b.Ints(r.col)
				for i := range out {
					switch {
					case xs[i] < ys[i]:
						out[i] = mLt
					case xs[i] > ys[i]:
						out[i] = mGt
					default:
						out[i] = mEq
					}
				}
			}, nil
		}
		// const-vs-const falls through to the generic kernel.
	}
	valueAt := func(s batchSide, b *tuple.Batch, i int) tuple.Value {
		if s.col >= 0 {
			return b.Value(s.col, i)
		}
		return s.val
	}
	return func(b *tuple.Batch, out []bool) {
		for i := range out {
			out[i] = pick(tuple.CompareValues(valueAt(l, b, i), valueAt(r, b, i)))
		}
	}, nil
}
