// Package core implements the paper's time-constrained aggregate query
// evaluation algorithm (Figure 3.1): given COUNT(E) and a time quota T,
// repetitively draw a cluster sample sized by the time-control strategy,
// evaluate the estimator, and stop when the quota (or another stopping
// criterion) is satisfied.
//
// Two execution modes mirror the paper:
//
//   - HardDeadline: a timer interrupt (deadline on the session clock)
//     aborts the running stage the moment the quota expires; the aborted
//     stage's work is wasted and the previous stage's estimate is
//     returned — the hard time constraint of §3.2.
//   - Overrun ("ERAM mode"): the final stage is allowed to complete past
//     the quota so its overspend can be measured — exactly how Section 5
//     instruments the prototype ("the ERAM does not abort a query
//     (stage) ... when the query overspends").
package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"tcq/internal/catalog"
	"tcq/internal/cost"
	"tcq/internal/estimator"
	"tcq/internal/exec"
	"tcq/internal/histogram"
	"tcq/internal/ra"
	"tcq/internal/sampling"
	"tcq/internal/scratch"
	"tcq/internal/stats"
	"tcq/internal/storage"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// Mode selects how the engine treats the quota boundary.
type Mode int

const (
	// HardDeadline aborts the running stage at quota expiry (timer
	// interrupt); the aborted stage's time is wasted.
	HardDeadline Mode = iota
	// Overrun lets the final stage finish past the quota and records
	// the overspent time (the paper's instrumented "ERAM mode").
	Overrun
)

// String names the mode.
func (m Mode) String() string {
	if m == Overrun {
		return "overrun"
	}
	return "hard"
}

// AggKind selects the aggregate function to estimate.
type AggKind int

const (
	// AggCount estimates COUNT(E) (the paper's aggregate).
	AggCount AggKind = iota
	// AggSum estimates SUM(E.column) — the paper's "any aggregate,
	// given an estimator" extension.
	AggSum
	// AggAvg estimates AVG(E.column) as the ratio SUM/COUNT.
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	default:
		return "count"
	}
}

// SamplingPlan selects the sampling technique (the paper's Fig. 3.2
// decision).
type SamplingPlan int

const (
	// ClusterSampling draws whole disk blocks as sample units — the
	// prototype's choice ("efficiency in sampling and in evaluation").
	ClusterSampling SamplingPlan = iota
	// SimpleRandomSampling draws individual tuples; every tuple costs a
	// full block read, which is why the paper rejects it on disk.
	SimpleRandomSampling
)

// String names the sampling plan.
func (p SamplingPlan) String() string {
	if p == SimpleRandomSampling {
		return "srs"
	}
	return "cluster"
}

// Options configures a time-constrained evaluation.
type Options struct {
	// Quota is the time constraint T. Required.
	Quota time.Duration
	// Agg selects the aggregate (default COUNT). AggColumn names the
	// summed column for AggSum/AggAvg.
	Agg       AggKind
	AggColumn string
	// GroupBy, when non-empty, additionally estimates per-group COUNTs
	// over the named output column (Result.Groups).
	GroupBy string
	// Strategy sizes each stage; defaults to One-at-a-Time with d_β=12.
	Strategy timectrl.Strategy
	// Stop adds precision-based stopping criteria on top of the quota.
	Stop timectrl.Criterion
	// Mode selects hard-deadline or overrun (ERAM) behaviour.
	Mode Mode
	// Plan selects full (default) or partial fulfillment.
	Plan exec.Plan
	// Sampling selects cluster (default) or simple random sampling.
	Sampling SamplingPlan
	// Initial holds first-stage selectivity assumptions (Fig. 3.3
	// defaults when zero-valued fields are kept).
	Initial timectrl.Initials
	// Model is the adaptive cost model; a fresh adaptive model with
	// designer defaults is built when nil.
	Model *cost.Model
	// PrestoredSelectivities switches from the paper's run-time
	// selectivity estimation to the §3.1 alternative the paper
	// discusses and rejects for general use: exact per-operator
	// selectivities computed ahead of time (modelling maintained
	// statistics). Useful for the ablation comparing the approaches.
	PrestoredSelectivities bool
	// Histograms, when non-nil, supplies equi-depth histograms
	// ([PsCo 84]/[MuDe 88], the §3.1 prestored-statistics approach) used
	// to estimate the selectivity of selections over base relations;
	// operators the histograms cannot estimate fall back to run-time
	// estimation. Ignored when PrestoredSelectivities is set.
	Histograms *histogram.Catalog
	// Confidence is the CI level of the result (default 0.95).
	Confidence float64
	// Seed drives the block sampler.
	Seed int64
	// MinStageBlocks is the smallest per-relation stage draw (default 1).
	MinStageBlocks int
	// MaxStages caps the stage count (safety valve; default 1000).
	MaxStages int
	// OnStage, when non-nil, observes each completed stage's record —
	// the online-aggregation-style progressive estimate hook.
	OnStage func(StageRecord)
	// Trace, when non-nil, receives a human-readable line per stage
	// decision (selectivities, planned fraction, predicted vs actual
	// cost) — the debugging view of the time-control algorithm. It is
	// shorthand for a trace.Text tracer combined with Tracer.
	Trace io.Writer
	// Tracer observes the evaluation: one QueryInfo, one StageRecord
	// per stage (selectivities, chosen fraction, predicted vs actual
	// cost, per-relation draws, charge counters, estimator state) and
	// one QueryEnd. Defaults to trace.Nop, whose Enabled() gate lets
	// the engine skip all record construction.
	Tracer trace.Tracer
	// Metrics, when non-nil, aggregates cross-query observability
	// counters (stages run, quota overruns, deadline polls, sort/merge
	// comparisons, temp-file bytes, coverage fractions) plus the live
	// queries_in_flight gauge. It is touched at query entry and exit
	// only — never on the per-tuple hot path.
	Metrics *trace.Registry
	// Catalog, when non-nil, enables the sample-catalog warm path
	// (cluster sampling only): the query shape's canonical fingerprint
	// is resolved against the catalog before any randomness is
	// consumed, and on a hit the samplers replay the materialized
	// per-relation block permutations while stage 1 is sized by
	// timectrl.PickCatalogStage from the catalog's resolution ladder
	// — hot shapes skip the cold run's early discovery stages. On a
	// miss the run is byte-identical to a catalog-disabled run (the
	// lookup touches neither the session clock nor any RNG), and the
	// completed run's coverage is recorded as the shape's hint so the
	// next identical shape hits.
	Catalog *catalog.Catalog
	// Parallelism bounds the worker pool evaluating a stage (≤ 1 =
	// serial). The budget is spent on two tiers: the signed SJIP terms
	// of the query run concurrently on recording lanes replayed in term
	// order (internal/exec/lane.go), and within a term, charge-free
	// sub-tasks — a merge's two run sorts and the cumulative plan's two
	// bucket joins — fan out through a sub-worker semaphore
	// (Env.runPar). Results are byte-identical for any value, including
	// single-term (pure join/intersect) queries. HardDeadline queries
	// keep terms serial — their abort points depend on the global
	// charge interleaving, which deferred lane charges cannot
	// reproduce — but still use the sub-term tier, which performs no
	// charges and so cannot move an abort point.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.MinStageBlocks < 1 {
		o.MinStageBlocks = 1
	}
	if o.MaxStages <= 0 {
		o.MaxStages = 1000
	}
	if init := (timectrl.Initials{}); o.Initial == init {
		o.Initial = timectrl.DefaultInitials()
	}
	return o
}

// StageRecord documents one stage of the evaluation.
type StageRecord struct {
	Index     int           // 1-based stage number
	Fraction  float64       // planned stage sample fraction
	Blocks    int           // blocks drawn this stage (all relations)
	Predicted time.Duration // QCOST(f, SEL⁺) for the stage
	Actual    time.Duration // realised stage duration
	Estimate  float64       // COUNT estimate after the stage
	Variance  float64
	Completed bool // false when the stage was aborted (hard mode)
	InTime    bool // completed within the quota
}

// Result is the outcome of a time-constrained evaluation.
type Result struct {
	// Estimate is the COUNT estimate from the last stage that finished
	// within the quota (zero-valued if none did).
	Estimate estimator.Estimate
	// Interval is the normal-approximation CI at Options.Confidence.
	Interval stats.Interval
	// Stages is the number of stages completed within the quota.
	Stages int
	// Blocks is the number of disk blocks evaluated within the quota
	// (the paper's "blocks" column).
	Blocks int
	// Elapsed is the total time consumed, including any overrun.
	Elapsed time.Duration
	// Successful is the time through the last within-quota stage (the
	// numerator of the paper's "utilization" column).
	Successful time.Duration
	// Overspent reports whether the quota was exceeded, and by how much
	// (the paper's "ovsp": the time past the quota needed to finish the
	// stage that was running at expiry; measured in Overrun mode).
	Overspent bool
	Overspend time.Duration
	// Wasted is quota − Successful: leftover too small for a stage plus
	// any within-quota time spent on an aborted stage.
	Wasted time.Duration
	// Utilization is Successful/Quota in [0, 1].
	Utilization float64
	// StopReason explains why evaluation ended.
	StopReason string
	// StageRecords documents every stage, including an aborted one.
	StageRecords []StageRecord
	// Groups holds per-group COUNT estimates (Options.GroupBy), from
	// the last stage completed within the quota.
	Groups []exec.GroupEstimate
}

// Engine evaluates time-constrained COUNT queries against a store.
type Engine struct {
	store *storage.Store
}

// NewEngine creates an engine over a store.
func NewEngine(store *storage.Store) *Engine { return &Engine{store: store} }

// queryState is what Count keeps on the query's arena from one query to
// the next: the sampler RNG (re-seeded in place: the stream of a fresh
// source, without its 4.9 KB), the default cost model, and the stage
// loop's two pointer lists.
type queryState struct {
	rng      *rand.Rand
	model    cost.Model
	samplers []*sampling.RelationSample
	roots    []*exec.NodeInfo
}

// Reset drops the ended query's pointers.
func (st *queryState) Reset() {
	clear(st.samplers[:cap(st.samplers)])
	clear(st.roots[:cap(st.roots)])
}

// Count runs the time-constrained evaluation of COUNT(e) (Fig. 3.1).
func (g *Engine) Count(e ra.Expr, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Quota <= 0 {
		return nil, errors.New("core: a positive time quota is required")
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	// Hard-deadline abort points depend on the exact global charge
	// interleaving, which deferred lane replay cannot reproduce — terms
	// stay serial. The sub-term tier (charge-free sorts and bucket-join
	// walks inside one operator stage) is interleaving-neutral, so the
	// full worker budget still applies below the term level.
	termWorkers := workers
	if opts.Mode == HardDeadline {
		termWorkers = 1
	}
	if opts.Metrics != nil {
		// Live occupancy gauge for the telemetry server: queries enter
		// here and leave on every return path. Registry ops never touch
		// the session clock, so determinism is unaffected.
		opts.Metrics.AddGauge("queries_in_flight", 1)
		defer opts.Metrics.AddGauge("queries_in_flight", -1)
	}
	cat := exec.StoreCatalog{Store: g.store}
	env := exec.NewEnv(g.store)
	q, err := exec.NewTieredParallelQuery(e, env, cat, opts.Plan, termWorkers, workers)
	if err != nil {
		return nil, err
	}
	if len(q.Feeds) == 0 {
		return nil, errors.New("core: query references no relations")
	}
	if opts.Agg != AggCount {
		if opts.AggColumn == "" {
			return nil, errors.New("core: AggSum/AggAvg need AggColumn")
		}
		if err := q.SetAggregate(opts.AggColumn); err != nil {
			return nil, err
		}
	}
	if opts.GroupBy != "" {
		if err := q.SetGroupBy(opts.GroupBy); err != nil {
			return nil, err
		}
	}
	aggregate := func() estimator.Estimate {
		switch opts.Agg {
		case AggSum:
			return q.SumEstimate()
		case AggAvg:
			return estimator.Ratio(q.SumEstimate(), q.Estimate())
		default:
			return q.Estimate()
		}
	}

	// Per-relation samplers (equal sample fractions across relations).
	// Under cluster sampling the units are disk blocks; under SRS they
	// are individual tuples.
	// Feeds are iterated in sorted name order wherever the shared RNG
	// is consumed or the session clock is charged: Go's randomized map
	// order would otherwise make identically-seeded runs diverge.
	feedNames := q.FeedNames()

	// Sample-catalog warm path (cluster sampling only): resolve the
	// canonical query shape before any randomness is consumed. Lookup
	// is pure host work — no clock charge, no RNG draw — so a miss
	// leaves the run byte-identical to a catalog-disabled one.
	var warm *catalog.Hit
	var warmStale bool
	var fingerprint string
	if opts.Catalog != nil && opts.Sampling == ClusterSampling {
		fingerprint = catalog.Fingerprint(e)
		views := make([]catalog.RelView, 0, len(feedNames))
		for _, name := range feedNames {
			f := q.Feeds[name]
			views = append(views, catalog.RelView{
				Name:      name,
				NumBlocks: f.Rel.NumBlocks(),
				NumTuples: f.Rel.NumTuples(),
			})
		}
		warm, warmStale = opts.Catalog.Lookup(fingerprint, views)
	}

	st := scratch.Of[queryState](env.Scratch())
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		st.rng.Seed(opts.Seed)
	}
	rng := st.rng
	samplers := st.samplers[:0] // one per feed, in feedNames order
	maxBlocks := 0
	for _, name := range feedNames {
		f := q.Feeds[name]
		units := f.Rel.NumBlocks()
		if opts.Sampling == SimpleRandomSampling {
			units = int(f.Rel.NumTuples())
			f.SetSRS(true)
		}
		if units == 0 {
			return nil, fmt.Errorf("core: relation %q is empty", name)
		}
		var smp *sampling.RelationSample
		if warm != nil {
			// Replay the materialized seeded permutation: the warm
			// sample is the catalog sample, drawn at build time.
			smp = sampling.NewRelationSampleFromPerm(name, warm.Perm(name), f.Rel.NumTuples())
		} else {
			smp = sampling.NewRelationSample(name, units, f.Rel.NumTuples(), rng)
		}
		smp.UseScratch(env.Scratch())
		samplers = append(samplers, smp)
		if units > maxBlocks {
			maxBlocks = units
		}
	}
	st.samplers = samplers

	model := opts.Model
	if model == nil {
		bf := q.Feeds[feedNames[0]].Rel.BlockingFactor()
		model = &st.model
		model.Reset(cost.DefaultCoefficients(g.store.Costs(), bf), true)
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = &timectrl.OneAtATime{DBeta: 12}
	}

	var oracle map[int]float64
	switch {
	case opts.PrestoredSelectivities:
		oracle, err = buildOracle(q, cat)
		if err != nil {
			return nil, err
		}
	case opts.Histograms != nil:
		oracle = buildHistogramOracle(q, opts.Histograms)
	}

	clock := g.store.Clock()
	start := clock.Now()
	deadline := vclock.NewDeadline(clock, opts.Quota)
	if opts.Mode == HardDeadline {
		env.SetDeadline(deadline)
	}

	// Tracing is read-only with respect to the simulation: it never
	// charges the clock or consumes sampler randomness, so identically
	// seeded runs produce identical results whether it is on or off.
	tracer := trace.Combine(opts.Tracer, textTracer(opts.Trace))
	tracing := tracer.Enabled()
	startCharges := chargesSnapshot(g.store, env)
	if tracing {
		tracer.BeginQuery(trace.QueryInfo{
			Query:    e.String(),
			Quota:    opts.Quota,
			Strategy: strategy.Name(),
			Mode:     opts.Mode.String(),
			Plan:     opts.Plan.String(),
			Sampling: opts.Sampling.String(),
			Catalog:  catalogTag(warm),
			Seed:     opts.Seed,
			Start:    start,
		})
	}

	res := &Result{StopReason: "quota exhausted"}
	var history []float64
	lastGood := estimator.Estimate{}
	successfulEnd := start

	for stageIdx := 1; stageIdx <= opts.MaxStages; stageIdx++ {
		// Model between-stage system-load variability when the clock
		// supports it (a simulated clock with load noise enabled).
		if lv, ok := clock.(interface{ ResampleLoad() }); ok {
			lv.ResampleLoad()
		}
		elapsed := clock.Now() - start
		remaining := opts.Quota - elapsed
		if remaining <= 0 {
			res.StopReason = "quota exhausted"
			break
		}

		// Determine the stage sample fraction (Fig. 3.4).
		roots := st.roots[:0]
		for _, te := range q.Terms {
			roots = append(roots, exec.Snapshot(te.Root))
		}
		st.roots = roots
		maxFraction, covered := 1.0, 1.0
		for _, s := range samplers {
			remFrac := float64(s.Remaining()) / float64(s.DTotal)
			if remFrac < maxFraction {
				maxFraction = remFrac
			}
			cumFrac := s.Fraction()
			if cumFrac < covered {
				covered = cumFrac
			}
		}
		if maxFraction <= 0 {
			res.StopReason = "sample exhausted (census reached)"
			break
		}
		minFraction := float64(opts.MinStageBlocks) / float64(maxBlocks)
		setMinFraction(strategy, minFraction)
		planIn := timectrl.PlanInput{
			Roots:       roots,
			Model:       model,
			Remaining:   remaining,
			Stage:       stageIdx,
			CoveredFrac: covered,
			MaxFraction: maxFraction,
			Initial:     opts.Initial,
			Oracle:      oracle,
		}
		var plan timectrl.Plan
		if warm != nil && stageIdx == 1 {
			// Warm first stage: jump straight to the smallest catalog
			// resolution covering the shape's historical stopping
			// coverage — the stages a cold run spends discovering that
			// coverage are skipped. Predicted is the model's QCOST for
			// evaluating the reused sample, d_β-inflated like any plan.
			plan = timectrl.PickCatalogStage(planIn, warm.Resolutions, warm.HintFrac, strategyDBeta(strategy))
		}
		if plan.Fraction <= 0 {
			plan = strategy.PlanStage(planIn)
		}
		if plan.Fraction <= 0 && stageIdx > 1 {
			// Even the smallest stage does not fit the leftover quota —
			// the paper terminates here (observed for join at high d_β).
			res.StopReason = "remaining quota too small for another stage"
			break
		}
		if plan.Fraction <= 0 {
			// Stage 1 always runs at the minimum size: some answer beats
			// none, and the paper's first stage is unconditional.
			plan.Fraction = minFraction
		}

		var preCharges trace.Charges
		var preCum map[int]int64
		if tracing {
			preCharges = chargesSnapshot(g.store, env)
			preCum = cumOutByNode(roots)
		}

		// Draw the stage's blocks (equal fractions, ≥ MinStageBlocks).
		stageStart := clock.Now()
		stageBlocks := 0
		aborted := false
		for i, name := range feedNames {
			f := q.Feeds[name]
			s := samplers[i]
			k := int(math.Round(plan.Fraction * float64(s.DTotal)))
			if k < opts.MinStageBlocks {
				k = opts.MinStageBlocks
			}
			blocks := s.Draw(k)
			if len(blocks) == 0 {
				continue
			}
			stageBlocks += len(blocks)
			if err := f.LoadStage(blocks); err != nil {
				if exec.IsAborted(err) {
					aborted = true
					break
				}
				return nil, err
			}
			if err := s.SetStageTuples(len(s.Stages)-1, f.StageLen(f.Stages()-1)); err != nil {
				return nil, err
			}
		}
		if !aborted {
			// Feeds that drew nothing this stage (exhausted relations)
			// still need a stage entry so term stage indices align.
			for _, name := range feedNames {
				f := q.Feeds[name]
				for f.Stages() < stageIdx {
					if err := f.LoadStage(nil); err != nil {
						return nil, err
					}
				}
			}
			if err := q.AdvanceStage(stageIdx - 1); err != nil {
				if exec.IsAborted(err) {
					aborted = true
				} else {
					return nil, err
				}
			}
		}
		stageEnd := clock.Now()
		stageDur := stageEnd - stageStart
		inTime := stageEnd-start <= opts.Quota

		var trec trace.StageRecord
		if tracing {
			trec = trace.StageRecord{
				Stage:       stageIdx,
				Fraction:    plan.Fraction,
				SearchIters: plan.Iterations,
				DBeta:       plan.DBeta,
				Predicted:   plan.Predicted,
				Actual:      stageDur,
				Overshoot:   overshoot(plan.Predicted, stageDur),
				Remaining:   opts.Quota - (stageEnd - start),
				Blocks:      stageBlocks,
				Charges:     chargesSnapshot(g.store, env).Sub(preCharges),
				Completed:   !aborted,
				InTime:      !aborted && inTime,
			}
			for i, name := range feedNames {
				s := samplers[i]
				if len(s.Stages) < stageIdx {
					continue
				}
				d := s.Stages[stageIdx-1]
				trec.Relations = append(trec.Relations, trace.RelationDraw{
					Relation:    name,
					Blocks:      len(d.Blocks),
					Tuples:      d.Tuples,
					CumBlocks:   s.CumBlocks(stageIdx - 1),
					CumFraction: s.Fraction(),
				})
			}
			// Re-derive the sel⁺ values the stage was planned with (a
			// pure re-prediction over the pre-stage snapshots), then
			// pair them with the post-stage operator state.
			planned := map[int]float64{}
			for _, os := range timectrl.PlanSelectivities(planIn, plan.DBeta, plan.Fraction) {
				planned[os.Node] = os.SelPlus
			}
			for _, te := range q.Terms {
				exec.WalkInfo(exec.Snapshot(te.Root), func(n *exec.NodeInfo) {
					if n.Op == exec.OpBase {
						return
					}
					op := trace.OpStat{
						Node:      n.ID,
						Op:        n.Op.String(),
						Sel:       timectrl.Selectivity(n, opts.Initial),
						SelPlus:   planned[n.ID],
						StageOut:  n.CumOut - preCum[n.ID],
						CumOut:    n.CumOut,
						CumPoints: n.CumPoints,
					}
					if n.Src != nil {
						op.Expr = n.Src.String()
					}
					for _, c := range n.Children {
						op.Children = append(op.Children, c.ID)
					}
					trec.Operators = append(trec.Operators, op)
				})
			}
			trace.SortOps(trec.Operators)
		}

		rec := StageRecord{
			Index:     stageIdx,
			Fraction:  plan.Fraction,
			Blocks:    stageBlocks,
			Predicted: plan.Predicted,
			Actual:    stageDur,
			Completed: !aborted,
			InTime:    !aborted && inTime,
		}

		if aborted {
			// Hard mode: the interrupt fired; the stage's time inside the
			// quota is wasted, and the previous estimate stands.
			res.Overspent = true
			res.StageRecords = append(res.StageRecords, rec)
			res.StopReason = "hard deadline: stage aborted"
			if tracing {
				tracer.StageDone(trec)
			}
			break
		}

		model.Observe(env.TakeTimings())
		strategy.ObserveStage(plan.Predicted, stageDur)

		est := aggregate()
		rec.Estimate = est.Value
		rec.Variance = est.Variance
		res.StageRecords = append(res.StageRecords, rec)
		if tracing {
			trec.Estimate = est.Value
			trec.StdErr = est.StdErr()
			trec.Interval = est.Interval(opts.Confidence).Half
			tracer.StageDone(trec)
		}
		if opts.OnStage != nil {
			opts.OnStage(rec)
		}

		if !inTime {
			// Overrun mode: the stage finished past the quota. Record the
			// overspend; the stage does not count toward the result
			// (a hard environment would have lost it).
			res.Overspent = true
			res.Overspend = (stageEnd - start) - opts.Quota
			res.StopReason = "quota exceeded during stage (overrun measured)"
			break
		}

		lastGood = est
		if opts.GroupBy != "" {
			res.Groups = q.GroupEstimates()
		}
		res.Stages = stageIdx
		res.Blocks += stageBlocks
		successfulEnd = stageEnd

		if opts.Stop != nil {
			history = append(history, est.Value)
			state := timectrl.StopState{
				Stage:    stageIdx,
				Elapsed:  stageEnd - start,
				Quota:    opts.Quota,
				Estimate: est,
				History:  history,
			}
			if done, why := opts.Stop.Done(state); done {
				res.StopReason = why
				break
			}
		}
	}

	res.Estimate = lastGood
	res.Interval = lastGood.Interval(opts.Confidence)
	res.Elapsed = clock.Now() - start
	res.Successful = successfulEnd - start
	if res.Successful > opts.Quota {
		res.Successful = opts.Quota
	}
	res.Utilization = float64(res.Successful) / float64(opts.Quota)
	if w := opts.Quota - res.Successful; w > 0 {
		res.Wasted = w
	}
	if tracing {
		tracer.EndQuery(trace.QueryEnd{
			Stages:      res.Stages,
			Blocks:      res.Blocks,
			Elapsed:     res.Elapsed,
			Successful:  res.Successful,
			Utilization: res.Utilization,
			Overspent:   res.Overspent,
			Overspend:   res.Overspend,
			StopReason:  res.StopReason,
			Estimate:    res.Estimate.Value,
			StdErr:      res.Estimate.StdErr(),
			Interval:    res.Interval.Half,
		})
	}
	coverage := 1.0
	for _, s := range samplers {
		if f := s.Fraction(); f < coverage {
			coverage = f
		}
	}
	if opts.Catalog != nil && fingerprint != "" {
		// Record the shape's realized stopping coverage as its reuse
		// hint (the first, cold run of a shape plants the hint the next
		// run hits on), and account a hit's reused sample volume. Both
		// are host-side catalog writes: no clock charge, no RNG draw.
		// The hint only counts successful stages: an overrun final
		// stage's blocks were drawn but bought nothing within the
		// quota, and folding them in would teach the catalog to plan
		// warm first stages that history says do NOT fit.
		if res.Stages > 0 {
			hintCov := 1.0
			for _, s := range samplers {
				var f float64
				if s.DTotal > 0 && len(s.Stages) >= res.Stages {
					f = float64(s.CumBlocks(res.Stages-1)) / float64(s.DTotal)
				}
				if f < hintCov {
					hintCov = f
				}
			}
			opts.Catalog.RecordShape(fingerprint, feedNames, hintCov, res.Interval.Half)
		}
		if warm != nil {
			opts.Catalog.ChargeReuse(res.Blocks, int64(res.Blocks)*int64(g.store.BlockSize()))
		}
	}
	if opts.Metrics != nil {
		d := chargesSnapshot(g.store, env).Sub(startCharges)
		// One atomic batch: a concurrent Snapshot must never see the
		// query counted but its stage/charge totals missing.
		opts.Metrics.Update(func(m trace.Tx) {
			m.Add("queries", 1)
			m.Add("stages", int64(res.Stages))
			if res.Overspent {
				m.Add("quota_overruns", 1)
			}
			m.Add("blocks_read", d.BlocksRead)
			m.Add("pages_written", d.PagesWritten)
			m.Add("temp_bytes", d.TempBytes)
			m.Add("comparisons", d.Comparisons)
			m.Add("deadline_polls", d.DeadlinePolls)
			m.Observe("coverage_fraction", coverage)
			m.Observe("stages_per_query", float64(res.Stages))
			m.Observe("blocks_per_query", float64(res.Blocks))
			m.Observe("utilization", res.Utilization)
			if opts.Catalog != nil {
				m.Add("catalog_lookups", 1)
				if warm != nil {
					m.Add("catalog_hits", 1)
					m.Add("catalog_blocks_reused", int64(res.Blocks))
					m.Add("catalog_bytes_reused", int64(res.Blocks)*int64(g.store.BlockSize()))
				} else {
					m.Add("catalog_misses", 1)
					if warmStale {
						m.Add("catalog_stale", 1)
					}
				}
			}
		})
	}
	return res, nil
}

// catalogTag renders the QueryInfo catalog marker: "hit" for a warm
// run, empty otherwise (so miss traces match catalog-disabled ones).
func catalogTag(warm *catalog.Hit) string {
	if warm != nil {
		return "hit"
	}
	return ""
}

// strategyDBeta extracts the sel⁺ risk knob the configured strategy
// plans with, so a warm catalog stage is inflated identically.
func strategyDBeta(s timectrl.Strategy) float64 {
	if o, ok := s.(*timectrl.OneAtATime); ok {
		return o.DBeta
	}
	return 0
}

// textTracer wraps the legacy Options.Trace writer as a tracer (nil in,
// nil out — Combine drops it).
func textTracer(w io.Writer) trace.Tracer {
	if w == nil {
		return nil
	}
	return trace.NewText(w)
}

// chargesSnapshot copies the session's cumulative physical counters
// into the trace representation; stage and query deltas come from
// subtracting two snapshots.
func chargesSnapshot(st *storage.Store, env *exec.Env) trace.Charges {
	c := st.Counters()
	return trace.Charges{
		BlocksRead:    c.BlocksRead,
		PagesWritten:  c.PagesWritten,
		TuplesRead:    c.TuplesRead,
		TuplesWritten: c.TuplesWritten,
		TempBytes:     c.TempBytes,
		Comparisons:   env.Comparisons,
		DeadlinePolls: env.DeadlinePolls,
	}
}

// cumOutByNode indexes a snapshot forest's cumulative output tuples by
// node id (the baseline for per-stage tuple-flow deltas).
func cumOutByNode(roots []*exec.NodeInfo) map[int]int64 {
	out := map[int]int64{}
	for _, root := range roots {
		exec.WalkInfo(root, func(n *exec.NodeInfo) { out[n.ID] = n.CumOut })
	}
	return out
}

// overshoot is the risk margin Actual/Predicted − 1, 0 when no
// prediction was made (guards the NaN/Inf that JSON cannot encode).
func overshoot(predicted, actual time.Duration) float64 {
	if predicted <= 0 {
		return 0
	}
	return float64(actual)/float64(predicted) - 1
}

// ExactCount evaluates COUNT(e) exactly (no sampling, no time
// constraint) — ground truth for experiments and tests.
func (g *Engine) ExactCount(e ra.Expr) (int64, error) {
	return ra.CountExact(e, exec.StoreCatalog{Store: g.store})
}

// ExactSum evaluates SUM(e.col) exactly.
func (g *Engine) ExactSum(e ra.Expr, col string) (float64, error) {
	return ra.SumExact(e, col, exec.StoreCatalog{Store: g.store})
}

// ExactAvg evaluates AVG(e.col) exactly (0 for an empty result).
func (g *Engine) ExactAvg(e ra.Expr, col string) (float64, error) {
	sum, err := g.ExactSum(e, col)
	if err != nil {
		return 0, err
	}
	n, err := g.ExactCount(e)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// buildOracle computes exact per-operator selectivities for every node
// of the query (the §3.1 "prestored" statistics): sel(op) = exact
// output cardinality / exact operand point count, with the same point
// definitions the executors track at run time. Exact counts are
// memoized per subexpression.
func buildOracle(q *exec.Query, rels ra.Relations) (map[int]float64, error) {
	counts := map[string]float64{}
	countOf := func(e ra.Expr) (float64, error) {
		k := e.String()
		if c, ok := counts[k]; ok {
			return c, nil
		}
		n, err := ra.CountExact(e, rels)
		if err != nil {
			return 0, err
		}
		counts[k] = float64(n)
		return float64(n), nil
	}
	oracle := map[int]float64{}
	var walkErr error
	for _, te := range q.Terms {
		exec.WalkInfo(exec.Snapshot(te.Root), func(n *exec.NodeInfo) {
			if walkErr != nil || n.Op == exec.OpBase || n.Src == nil {
				return
			}
			out, err := countOf(n.Src)
			if err != nil {
				walkErr = err
				return
			}
			points := 1.0
			for _, c := range n.Children {
				if c.Src == nil {
					walkErr = fmt.Errorf("core: oracle: node %d missing source expr", c.ID)
					return
				}
				p, err := countOf(c.Src)
				if err != nil {
					walkErr = err
					return
				}
				points *= p
			}
			if points > 0 {
				oracle[n.ID] = out / points
			}
		})
	}
	if walkErr != nil {
		return nil, walkErr
	}
	return oracle, nil
}

// buildHistogramOracle estimates selectivities for selections over
// base relations from equi-depth histograms. Nodes the histograms
// cannot cover are simply absent from the map (run-time estimation
// applies to them).
func buildHistogramOracle(q *exec.Query, cat *histogram.Catalog) map[int]float64 {
	oracle := map[int]float64{}
	for _, te := range q.Terms {
		exec.WalkInfo(exec.Snapshot(te.Root), func(n *exec.NodeInfo) {
			if n.Op != exec.OpSelect || n.Src == nil || len(n.Children) != 1 {
				return
			}
			sel, ok := n.Src.(*ra.Select)
			if !ok {
				return
			}
			base, ok := sel.Input.(*ra.Base)
			if !ok {
				return
			}
			if s, ok := cat.PredSelectivity(base.Name, sel.Pred); ok {
				oracle[n.ID] = s
			}
		})
	}
	return oracle
}

// BuildHistograms constructs equi-depth histograms (with the given
// bucket count) for every numeric column of every relation in the
// store — the "ANALYZE" step of the prestored-statistics approach.
func BuildHistograms(st *storage.Store, buckets int) (*histogram.Catalog, error) {
	cat := histogram.NewCatalog()
	for _, name := range st.RelationNames() {
		rel, err := st.Relation(name)
		if err != nil {
			return nil, err
		}
		sch := rel.Schema()
		ts := rel.AllTuples()
		for i := 0; i < sch.NumCols(); i++ {
			col := sch.Col(i)
			if col.Type != tuple.Int && col.Type != tuple.Float {
				continue
			}
			if err := cat.Add(name, sch, ts, col.Name, buckets); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}

// setMinFraction pushes the engine-computed minimum stage fraction into
// strategies that expose one.
func setMinFraction(s timectrl.Strategy, f float64) {
	switch v := s.(type) {
	case *timectrl.OneAtATime:
		v.MinFraction = f
	case *timectrl.SingleInterval:
		v.MinFraction = f
	case *timectrl.Heuristic:
		v.MinFraction = f
	}
}

// FullScanCount evaluates COUNT(e) exactly WITH full cost accounting:
// it runs the sample executor over a census (every block of every
// operand relation in one stage), so the session clock is charged for
// all the work an unconstrained evaluation performs. This is the
// honest baseline a time-constrained estimate competes against.
func (g *Engine) FullScanCount(e ra.Expr) (int64, error) {
	cat := exec.StoreCatalog{Store: g.store}
	env := exec.NewEnv(g.store)
	q, err := exec.NewQuery(e, env, cat, exec.FullFulfillment)
	if err != nil {
		return 0, err
	}
	for _, name := range q.FeedNames() {
		f := q.Feeds[name]
		blocks := make([]int, f.Rel.NumBlocks())
		for i := range blocks {
			blocks[i] = i
		}
		if err := f.LoadStage(blocks); err != nil {
			return 0, err
		}
	}
	if err := q.AdvanceStage(0); err != nil {
		return 0, err
	}
	est := q.Estimate()
	return int64(math.Round(est.Value)), nil
}
