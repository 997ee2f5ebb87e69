package exec

import (
	"fmt"
	"sort"

	"tcq/internal/estimator"
	"tcq/internal/tuple"
)

// Group-by COUNT estimation: an extension in the spirit of the paper's
// "any aggregate, given an estimator" remark. Each group g of a
// low-cardinality column defines the derived query COUNT(σ_{col=g}(E)),
// and every group's estimator shares the one sampled evaluation: the
// term executor tallies output tuples per group value, and each group's
// count is estimated with the same point-space ratio as the scalar
// COUNT.

// GroupEstimate is one group's COUNT estimate.
type GroupEstimate struct {
	// Key is the group's column value (int64, float64 or string).
	Key tuple.Value
	// Estimate is the group's COUNT estimate.
	Estimate estimator.Estimate
}

// SetGroupBy configures per-group tallying over the named column of the
// term's output. Like SetAggregate, it rejects projection-rooted terms.
func (te *TermExec) SetGroupBy(col string) error {
	if _, ok := te.Root.(*projectNode); ok {
		return fmt.Errorf("exec: GROUP BY over a projection is not supported")
	}
	sch := te.Root.Schema()
	i, ok := sch.ColIndex(col)
	if !ok {
		return fmt.Errorf("exec: unknown group-by column %q", col)
	}
	te.groupCol = i
	te.groups = make(map[tuple.Value]int64)
	return nil
}

// groupEstimate returns one group's COUNT estimate for this term.
func (te *TermExec) groupEstimate(key tuple.Value) estimator.Estimate {
	pointsEval := te.PointsEvaluated()
	if pointsEval <= 0 {
		return estimator.Estimate{}
	}
	return estimator.PointSpaceCluster(float64(te.groups[key]), pointsEval, te.TotalPoints())
}

// SetGroupBy configures per-group tallying on every term of the query.
func (q *Query) SetGroupBy(col string) error {
	for _, te := range q.Terms {
		if err := te.SetGroupBy(col); err != nil {
			return err
		}
	}
	return nil
}

// GroupEstimates combines the signed per-term group estimates across
// every group value observed in any term, sorted by key for
// deterministic output.
func (q *Query) GroupEstimates() []GroupEstimate {
	keys := map[tuple.Value]bool{}
	for _, te := range q.Terms {
		for k := range te.groups {
			keys[k] = true
		}
	}
	out := make([]GroupEstimate, 0, len(keys))
	for k := range keys {
		parts := make([]estimator.TermEstimate, 0, len(q.Terms))
		for _, te := range q.Terms {
			parts = append(parts, estimator.TermEstimate{
				Sign:     te.Term.Sign,
				Estimate: te.groupEstimate(k),
			})
		}
		out = append(out, GroupEstimate{Key: k, Estimate: estimator.Combine(parts)})
	}
	sort.Slice(out, func(i, j int) bool { return lessValue(out[i].Key, out[j].Key) })
	return out
}

// lessValue orders group keys of mixed numeric/string types (numbers
// before strings; within a kind, natural order).
func lessValue(a, b tuple.Value) bool {
	_, aStr := a.(string)
	_, bStr := b.(string)
	if aStr != bStr {
		return !aStr
	}
	if aStr {
		return a.(string) < b.(string)
	}
	return tuple.CompareValues(a, b) < 0
}
