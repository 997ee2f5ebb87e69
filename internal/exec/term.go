package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tcq/internal/estimator"
	"tcq/internal/ra"
	"tcq/internal/tuple"
)

// TermExec runs one signed SJIP term of the inclusion–exclusion
// decomposition: it owns the term's executor tree and derives the
// term's COUNT estimate from the cumulative sample.
type TermExec struct {
	Term  ra.Term
	Root  Node
	Plan  Plan
	feeds []*Feed // distinct base-relation feeds, sorted by name

	aggCol   int     // aggregated column index in Root's schema; -1 = none
	aggSum   float64 // Σ value over output tuples
	aggSqSum float64 // Σ value² over output tuples

	groupCol int // group-by column index; -1 = none
	groups   map[tuple.Value]int64
}

// NewTermExec builds the executor for one term. feeds must contain a
// Feed for every base relation of the term (feeds are shared across
// terms so each relation is sampled once per stage).
func NewTermExec(term ra.Term, env *Env, cat ra.Catalog, feeds map[string]*Feed, plan Plan) (*TermExec, error) {
	root, err := BuildTerm(term, env, cat, feeds, plan)
	if err != nil {
		return nil, err
	}
	names := ra.BaseRelations(term.Expr())
	sort.Strings(names)
	te := &TermExec{Term: term, Root: root, Plan: plan, aggCol: -1, groupCol: -1}
	for _, n := range names {
		f, ok := feeds[n]
		if !ok {
			return nil, fmt.Errorf("exec: no feed for relation %q", n)
		}
		te.feeds = append(te.feeds, f)
	}
	return te, nil
}

// Feeds returns the term's distinct base-relation feeds.
func (te *TermExec) Feeds() []*Feed { return te.feeds }

// SetAggregate configures SUM/AVG accumulation over the named numeric
// column of the term's output. It fails for unknown or non-numeric
// columns and for projection-rooted terms (a sum over distinct values
// has no point-space estimator here).
func (te *TermExec) SetAggregate(col string) error {
	if _, ok := te.Root.(*projectNode); ok {
		return fmt.Errorf("exec: SUM/AVG over a projection is not supported")
	}
	sch := te.Root.Schema()
	i, ok := sch.ColIndex(col)
	if !ok {
		return fmt.Errorf("exec: unknown aggregate column %q", col)
	}
	switch sch.Col(i).Type {
	case tuple.Int, tuple.Float:
	default:
		return fmt.Errorf("exec: aggregate column %q is not numeric", col)
	}
	te.aggCol = i
	return nil
}

// Advance evaluates one more stage of the term and folds the stage's
// output columns into the SUM and GROUP-BY accumulators. Feeds must
// already hold the stage's samples (Feed.LoadStage).
func (te *TermExec) Advance(stage int) error {
	out, err := te.Root.Advance(stage)
	if err != nil {
		return err
	}
	if te.aggCol >= 0 {
		// The column is Int or Float (SetAggregate); the other slice is nil.
		for _, x := range out.Ints(te.aggCol) {
			v := float64(x)
			te.aggSum += v
			te.aggSqSum += v * v
		}
		for _, v := range out.Floats(te.aggCol) {
			te.aggSum += v
			te.aggSqSum += v * v
		}
	}
	if te.groupCol >= 0 {
		for i := 0; i < out.Len(); i++ {
			te.groups[out.Value(te.groupCol, i)]++
		}
	}
	return nil
}

// PointsEvaluated returns the number of points of the term's point
// space covered by the cumulative sample: Π m_i under full fulfillment,
// Σ_s Π m_{i,s} under partial fulfillment. The point-space dimensions
// are the term's distinct base relations.
func (te *TermExec) PointsEvaluated() float64 {
	if len(te.feeds) == 0 {
		return 0
	}
	if te.Plan == FullFulfillment {
		p := 1.0
		for _, f := range te.feeds {
			p *= float64(f.CumTuples())
		}
		return p
	}
	// Partial fulfillment: only same-stage combinations are covered.
	nStages := te.feeds[0].Stages()
	total := 0.0
	for s := 0; s < nStages; s++ {
		prod := 1.0
		for _, f := range te.feeds {
			prod *= float64(f.StageLen(s))
		}
		total += prod
	}
	return total
}

// TotalPoints returns the size of the term's point space: Π |r_i| over
// distinct base relations.
func (te *TermExec) TotalPoints() float64 {
	p := 1.0
	for _, f := range te.feeds {
		p *= float64(f.Rel.NumTuples())
	}
	return p
}

// Estimate returns the term's current COUNT estimate.
//
// For Select-Join-Intersect terms this is the cluster-plan point-space
// estimator with the paper's SRS variance approximation. For terms with
// a projection at the root, Goodman's estimator (revised) is applied to
// the projection's occupancy counts, with the population size taken
// from the point-space estimate of the projection's input (the paper
// assumes the input size known; under composition we estimate it —
// see DESIGN.md). A projection nested below other operators falls back
// to the point-space ratio, a documented approximation.
func (te *TermExec) Estimate() estimator.Estimate {
	pointsEval := te.PointsEvaluated()
	if pointsEval <= 0 {
		return estimator.Estimate{}
	}
	totalPoints := te.TotalPoints()
	if proj, ok := te.Root.(*projectNode); ok {
		child := proj.child
		childEst := estimator.PointSpaceCluster(float64(child.CumOutTuples()), pointsEval, totalPoints)
		popN := int64(math.Round(childEst.Value))
		n := proj.SampledInput()
		if popN < n {
			popN = n
		}
		if popN <= 0 {
			return estimator.Estimate{}
		}
		return estimator.DistinctCount(popN, n, proj.Occupancies())
	}
	return estimator.PointSpaceCluster(float64(te.Root.CumOutTuples()), pointsEval, totalPoints)
}

// SumEstimate returns the term's SUM estimate over the configured
// aggregate column (zero Estimate when SetAggregate was not called or
// no points are covered yet).
func (te *TermExec) SumEstimate() estimator.Estimate {
	if te.aggCol < 0 {
		return estimator.Estimate{}
	}
	s := estimator.SumSample{
		Points: te.PointsEvaluated(),
		Count:  float64(te.Root.CumOutTuples()),
		Sum:    te.aggSum,
		SumSq:  te.aggSqSum,
	}
	return estimator.PointSpaceSum(s, te.TotalPoints())
}

// HasRootProjection reports whether the term's top operator is a
// projection (Goodman path).
func (te *TermExec) HasRootProjection() bool {
	_, ok := te.Root.(*projectNode)
	return ok
}

// Query bundles the term executors of one COUNT(E) query with the
// shared feeds, and combines their estimates.
type Query struct {
	Terms []*TermExec
	Feeds map[string]*Feed
	Env   *Env
	Plan  Plan

	// workers > 1 selects deterministic parallel stage evaluation: each
	// term executes on its own lane environment (termEnvs[i]), and the
	// recorded charges are replayed onto the session clock in term order
	// after every stage (see lane.go).
	workers  int
	termEnvs []*Env

	feedNames []string                 // sorted
	errs      []error                  // per-term stage outcome, reused every stage
	parts     []estimator.TermEstimate // Estimate's operands, reused every call
}

// FeedNames returns the feed relation names in sorted order. Callers
// that draw from a shared RNG or charge the session clock per feed must
// iterate feeds in this order, not Go's randomized map order, or
// identical seeds produce different runs. Callers must not modify it.
func (q *Query) FeedNames() []string { return q.feedNames }

// NewQuery decomposes COUNT(e) into signed terms and builds an executor
// per term, with one shared Feed per distinct base relation. Stages are
// evaluated serially; see NewParallelQuery.
func NewQuery(e ra.Expr, env *Env, cat ra.Catalog, plan Plan) (*Query, error) {
	return NewParallelQuery(e, env, cat, plan, 1)
}

// NewParallelQuery is NewQuery with a worker budget for stage
// evaluation; the budget feeds both tiers of parallelism (see
// NewTieredParallelQuery).
func NewParallelQuery(e ra.Expr, env *Env, cat ra.Catalog, plan Plan, workers int) (*Query, error) {
	return NewTieredParallelQuery(e, env, cat, plan, workers, workers)
}

// NewTieredParallelQuery builds a query with a split worker budget.
//
// termWorkers bounds term-level parallelism: with termWorkers > 1 each
// signed SJIP term is built on a forked lane environment so terms can
// execute concurrently; replaying the lanes in term order afterwards
// reproduces the exact serial charge sequence, so any worker count
// yields byte-identical estimates, timings and traces. Feeds always
// belong to the root environment: samples are drawn and loaded serially
// (they consume the query's seeded RNG stream).
//
// subWorkers bounds sub-term parallelism: charge-free sub-tasks inside
// one operator stage (a merge's two run sorts, the cumulative plan's
// two bucket joins) may fan out to up to subWorkers-1 extra goroutines
// (Env.runPar). This is what lets a single-term query — a pure join or
// intersection, where term-level parallelism degenerates to one lane —
// and hard-deadline queries (termWorkers forced to 1) still use more
// than one core, again without touching the simulated timeline.
func NewTieredParallelQuery(e ra.Expr, env *Env, cat ra.Catalog, plan Plan, termWorkers, subWorkers int) (*Query, error) {
	terms, err := ra.Terms(e, cat)
	if err != nil {
		return nil, err
	}
	feedNames := ra.BaseRelations(e)
	feeds := make(map[string]*Feed, len(feedNames))
	for _, name := range feedNames { // expression order: it numbers the feeds' nodes
		rel, err := env.Store.Relation(name)
		if err != nil {
			return nil, err
		}
		feeds[name] = NewFeed(env, rel)
	}
	sort.Strings(feedNames)
	if termWorkers < 1 {
		termWorkers = 1
	}
	if len(terms) == 1 {
		// One term has nothing to fan out at this tier; running it inline
		// on the engine goroutine IS the serial charge order, so the lane
		// record/replay machinery would be pure overhead. Sub-term
		// parallelism below still applies.
		termWorkers = 1
	}
	env.SetSubWorkers(subWorkers)
	q := &Query{Feeds: feeds, Env: env, Plan: plan, workers: termWorkers, feedNames: feedNames,
		errs: make([]error, len(terms)), parts: make([]estimator.TermEstimate, len(terms))}
	for _, t := range terms {
		tenv := env
		if termWorkers > 1 {
			tenv = env.fork()
			q.termEnvs = append(q.termEnvs, tenv)
		}
		te, err := NewTermExec(t, tenv, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		q.Terms = append(q.Terms, te)
	}
	return q, nil
}

// AdvanceStage evaluates stage over all terms (feeds must be loaded).
// With a worker budget > 1 the terms run on their lane environments —
// concurrently when the stage is large enough to repay the goroutine
// handoff, one after the other on the calling goroutine otherwise — and
// the recorded work is folded back in term order, so the session clock,
// counters and timings end the stage in exactly the state a serial
// evaluation would have produced.
func (q *Query) AdvanceStage(stage int) error {
	if q.workers <= 1 || len(q.termEnvs) == 0 {
		for _, te := range q.Terms {
			if err := te.Advance(stage); err != nil {
				return err
			}
		}
		return nil
	}
	errs := q.errs
	clear(errs)
	if q.stageBelowFloor(stage) {
		// Lanes make the two schedules indistinguishable to the
		// simulation; a serial run stops at the first failing term.
		for i, te := range q.Terms {
			if errs[i] = te.Advance(stage); errs[i] != nil {
				break
			}
		}
	} else {
		sem := make(chan struct{}, q.workers)
		var wg sync.WaitGroup
		for i, te := range q.Terms {
			wg.Add(1)
			go func(i int, te *TermExec) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = te.Advance(stage)
			}(i, te)
		}
		wg.Wait()
	}
	// Replay in fixed term order — the serial charge sequence. On error,
	// replay only the prefix a serial run would have executed (terms
	// after the first failure never ran serially).
	for i, tenv := range q.termEnvs {
		tenv.replayLane(q.Env)
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// stageBelowFloor reports whether every relation loaded fewer than
// subParMin tuples for the stage — the floor under sub-term fan-out
// (runPar) applied to the term tier: below it a term's whole stage is
// cheaper than handing it to another goroutine.
func (q *Query) stageBelowFloor(stage int) bool {
	for _, f := range q.Feeds {
		if f.StageLen(stage) >= subParMin {
			return false
		}
	}
	return true
}

// SetAggregate configures SUM/AVG accumulation over the named column on
// every term.
func (q *Query) SetAggregate(col string) error {
	for _, te := range q.Terms {
		if err := te.SetAggregate(col); err != nil {
			return err
		}
	}
	return nil
}

// SumEstimate combines the signed per-term SUM estimates.
func (q *Query) SumEstimate() estimator.Estimate {
	parts := make([]estimator.TermEstimate, 0, len(q.Terms))
	for _, te := range q.Terms {
		parts = append(parts, estimator.TermEstimate{
			Sign:     te.Term.Sign,
			Estimate: te.SumEstimate(),
		})
	}
	return estimator.Combine(parts)
}

// Estimate combines the signed term estimates (Principle of Inclusion
// and Exclusion).
func (q *Query) Estimate() estimator.Estimate {
	for i, te := range q.Terms {
		q.parts[i] = estimator.TermEstimate{Sign: te.Term.Sign, Estimate: te.Estimate()}
	}
	return estimator.Combine(q.parts)
}

// SampledBlocks returns the total number of distinct disk blocks
// sampled across all relations (the "blocks" column of the paper's
// experiment tables).
func (q *Query) SampledBlocks() int {
	total := 0
	for _, f := range q.Feeds {
		total += f.CumBlocks()
	}
	return total
}
