package tcq

import (
	"io"
	"math"
	"runtime"
	"time"

	"tcq/internal/calib"
	"tcq/internal/core"
	"tcq/internal/exec"
	"tcq/internal/histogram"
	"tcq/internal/telemetry"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
)

// StrategyKind selects the time-control strategy of Section 3.3.
type StrategyKind int

const (
	// OneAtATime is the One-at-a-Time-Interval strategy (the paper's
	// implemented default): each operator's selectivity is inflated to
	// sel⁺ with the DBeta risk knob.
	OneAtATime StrategyKind = iota
	// SingleInterval reserves whole-query cost headroom (DAlpha
	// standard deviations of the stage-cost prediction error).
	SingleInterval
	// Heuristic spends a fixed share (Gamma) of the remaining quota
	// each stage.
	Heuristic
)

// String names the strategy kind.
func (k StrategyKind) String() string {
	switch k {
	case SingleInterval:
		return "single-interval"
	case Heuristic:
		return "heuristic"
	default:
		return "one-at-a-time"
	}
}

// Plan selects the cluster-sampling evaluation plan.
type Plan int

const (
	// FullFulfillment combines every stage's sample with all previous
	// stages' samples (the paper's implemented plan).
	FullFulfillment Plan = iota
	// PartialFulfillment combines only same-stage samples.
	PartialFulfillment
)

// EstimateOptions configures a time-constrained COUNT.
type EstimateOptions struct {
	// Quota is the time constraint T (required).
	Quota time.Duration
	// HardDeadline aborts the running stage at quota expiry (the hard
	// time constraint). The default lets the final stage finish and
	// reports the overspend (the paper's instrumented ERAM mode).
	HardDeadline bool
	// Strategy picks the time-control strategy (default OneAtATime).
	Strategy StrategyKind
	// DBeta is the One-at-a-Time risk knob (default 12; 0 ≈ 50% risk
	// of overspending, larger is more conservative).
	DBeta float64
	// DAlpha is the Single-Interval reserve knob (default 1).
	DAlpha float64
	// Gamma is the Heuristic per-stage share (default 0.5).
	Gamma float64
	// Plan selects full (default) or partial fulfillment.
	Plan Plan
	// SimpleRandomSampling samples individual tuples instead of whole
	// disk blocks (each tuple then costs a full block read — the
	// paper's Fig. 3.2 rationale for preferring cluster sampling).
	SimpleRandomSampling bool
	// TargetRelError, when positive, adds an error-constrained stopping
	// criterion: stop once the CI half-width falls below this fraction
	// of the estimate (e.g. 0.05 for ±5%).
	TargetRelError float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// InitialJoinSelectivity overrides the first-stage join selectivity
	// assumption (default 1, the Fig. 3.3 maximum; the paper's join
	// experiment uses 0.1).
	InitialJoinSelectivity float64
	// StableStages, when >= 2, stops once the estimate has moved by
	// less than StableTol (relative; default 0.01) over that many
	// stages — §3.2's "does not improve much" criterion.
	StableStages int
	// StableTol is the relative movement threshold for StableStages.
	StableTol float64
	// UseStatistics estimates selection selectivities from the
	// histograms built by DB.BuildStatistics instead of run-time
	// samples (operators the histograms cannot cover still use
	// run-time estimation). Requires a prior BuildStatistics call.
	UseStatistics bool
	// Parallelism bounds the worker pool evaluating the query's signed
	// SJIP terms within a stage (default GOMAXPROCS; set negative for
	// serial evaluation). Any value yields bit-identical results: the
	// per-term work is recorded on lanes and replayed in term order
	// (see DESIGN.md §7). HardDeadline queries always run serially.
	Parallelism int
	// Seed drives block sampling (default 1).
	Seed int64
	// Label tags the query in telemetry and calibration records (the
	// progress registry, history ring, flight recorder). Tenant-scoped
	// sessions (DB.Tenant) stamp "tenant/name" here; empty for ad-hoc
	// queries. Purely observational: it never affects the estimate.
	Label string
	// OnProgress, when non-nil, receives each completed stage's
	// progressive estimate (online-aggregation style).
	OnProgress func(Progress)
	// Trace, when non-nil, receives a human-readable line per stage
	// decision (selectivities, planned fraction, predicted vs actual) —
	// the debugging view of the time-control algorithm.
	Trace io.Writer
	// CollectTrace records a structured per-stage trace of the run and
	// attaches it to Estimate.Trace (see ExplainAnalyze for a rendered
	// view). Off by default: collection snapshots the operator tree
	// after every stage.
	CollectTrace bool
	// Tracer, when non-nil, additionally streams trace events to a
	// custom observer (see the trace package).
	Tracer trace.Tracer
	// GroundTruth, when non-nil, declares the query's known exact answer
	// (e.g. a prior full-scan count). It never influences the estimate;
	// it feeds the calibration audit: the final interval is scored
	// against it for the empirical-coverage statistics in
	// DB.Calibration() and DB.QueryStats(), and a miss captures the run
	// in the flight recorder. A pointer because 0 is a meaningful truth.
	GroundTruth *float64
}

// Progress is a per-stage progressive estimate.
type Progress struct {
	Stage    int
	Estimate float64
	StdErr   float64
	Blocks   int           // blocks drawn this stage
	Spent    time.Duration // stage duration
}

// Estimate is the outcome of a time-constrained COUNT.
type Estimate struct {
	// Value is the COUNT estimate from the last stage completed within
	// the quota.
	Value float64
	// StdErr is the estimate's standard error.
	StdErr float64
	// Interval is the CI half-width at Confidence; the interval is
	// [Value−Interval, Value+Interval].
	Interval float64
	// Confidence is the CI level used.
	Confidence float64
	// Stages completed within the quota.
	Stages int
	// Blocks evaluated within the quota (the overall sample size).
	Blocks int
	// Elapsed is total time spent, including any overrun.
	Elapsed time.Duration
	// Utilization is the fraction of the quota spent productively.
	Utilization float64
	// Overspent reports whether the quota was exceeded and by how much
	// (only measurable without HardDeadline).
	Overspent bool
	Overrun   time.Duration
	// StopReason explains why evaluation ended.
	StopReason string
	// Trace is the structured per-stage record of the run, present only
	// when EstimateOptions.CollectTrace was set.
	Trace *QueryTrace
}

// CountEstimate evaluates COUNT(q) within the time quota using the
// paper's stage-by-stage algorithm (Fig. 3.1).
func (db *DB) CountEstimate(q Query, opts EstimateOptions) (*Estimate, error) {
	return db.estimate(q, core.AggCount, "", opts)
}

// SumEstimate evaluates SUM(q.col) within the time quota — the paper's
// "any aggregate, given an estimator" extension: the point-space model
// carries the column value instead of the 0/1 indicator.
func (db *DB) SumEstimate(q Query, col string, opts EstimateOptions) (*Estimate, error) {
	return db.estimate(q, core.AggSum, col, opts)
}

// AvgEstimate evaluates AVG(q.col) within the time quota, as the ratio
// of the SUM and COUNT estimators.
func (db *DB) AvgEstimate(q Query, col string, opts EstimateOptions) (*Estimate, error) {
	return db.estimate(q, core.AggAvg, col, opts)
}

// GroupCount is one group's COUNT estimate.
type GroupCount struct {
	// Key is the group's column value (int64, float64 or string).
	Key interface{}
	// Value is the group's COUNT estimate; the CI is Value ± Interval.
	Value    float64
	StdErr   float64
	Interval float64
}

// GroupCountEstimate estimates per-group COUNTs of q's output over the
// named column within the time quota — every group shares the one
// sampled evaluation. Groups never sampled are absent; rare groups have
// wide intervals. Returns the groups (sorted by key) plus the overall
// COUNT estimate.
func (db *DB) GroupCountEstimate(q Query, col string, opts EstimateOptions) ([]GroupCount, *Estimate, error) {
	res, est, err := db.run(q, core.AggCount, "", col, opts)
	if err != nil {
		return nil, nil, err
	}
	level := est.Confidence
	out := make([]GroupCount, 0, len(res.Groups))
	for _, g := range res.Groups {
		out = append(out, GroupCount{
			Key:      g.Key,
			Value:    g.Estimate.Value,
			StdErr:   g.Estimate.StdErr(),
			Interval: g.Estimate.Interval(level).Half,
		})
	}
	return out, est, nil
}

func (db *DB) estimate(q Query, agg core.AggKind, col string, opts EstimateOptions) (*Estimate, error) {
	_, est, err := db.run(q, agg, col, "", opts)
	return est, err
}

// run is the shared implementation behind every estimate entry point.
func (db *DB) run(q Query, agg core.AggKind, col, groupBy string, opts EstimateOptions) (*core.Result, *Estimate, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	if opts.Quota <= 0 {
		return nil, nil, errNoQuota
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		opts.Confidence = 0.95
	}

	var strategy timectrl.Strategy
	switch opts.Strategy {
	case SingleInterval:
		dAlpha := opts.DAlpha
		if dAlpha == 0 {
			dAlpha = 1
		}
		strategy = &timectrl.SingleInterval{DAlpha: dAlpha}
	case Heuristic:
		gamma := opts.Gamma
		if gamma <= 0 || gamma > 1 {
			gamma = 0.5
		}
		strategy = &timectrl.Heuristic{Gamma: gamma, CommitBelow: opts.Quota / 8}
	default:
		dBeta := opts.DBeta
		if dBeta == 0 {
			dBeta = 12
		}
		strategy = &timectrl.OneAtATime{DBeta: dBeta}
	}

	initial := timectrl.DefaultInitials()
	if opts.InitialJoinSelectivity > 0 {
		initial.Join = opts.InitialJoinSelectivity
	}

	var criteria timectrl.Any
	if opts.TargetRelError > 0 {
		criteria = append(criteria, timectrl.ErrorTarget{RelHalfWidth: opts.TargetRelError, Level: opts.Confidence})
	}
	if opts.StableStages >= 2 {
		tol := opts.StableTol
		if tol <= 0 {
			tol = 0.01
		}
		criteria = append(criteria, timectrl.NoImprovement{K: opts.StableStages, Tol: tol})
	}
	var stop timectrl.Criterion
	if len(criteria) > 0 {
		stop = criteria
	}

	mode := core.Overrun
	if opts.HardDeadline {
		mode = core.HardDeadline
	}
	plan := exec.FullFulfillment
	if opts.Plan == PartialFulfillment {
		plan = exec.PartialFulfillment
	}
	samplingPlan := core.ClusterSampling
	if opts.SimpleRandomSampling {
		samplingPlan = core.SimpleRandomSampling
	}

	workers := opts.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	coreOpts := core.Options{
		Agg:         agg,
		AggColumn:   col,
		GroupBy:     groupBy,
		Quota:       opts.Quota,
		Histograms:  histCat(db, opts.UseStatistics),
		Strategy:    strategy,
		Stop:        stop,
		Mode:        mode,
		Plan:        plan,
		Sampling:    samplingPlan,
		Trace:       opts.Trace,
		Tracer:      opts.Tracer,
		Metrics:     db.metrics,
		Initial:     initial,
		Confidence:  opts.Confidence,
		Seed:        opts.Seed,
		Parallelism: workers,
		Catalog:     db.samples,
	}
	var collector *trace.Collector
	if opts.CollectTrace {
		collector = trace.NewCollector()
		coreOpts.Tracer = trace.Combine(collector, opts.Tracer)
	}
	// The live telemetry handle rides the tracer chain: progress updates
	// happen at stage boundaries under the tracing layer's read-only
	// contract. With telemetry off this is a single nil check.
	var handle *telemetry.Handle
	if db.progress != nil {
		handle = db.progress.Track(opts.Label)
		if opts.GroundTruth != nil {
			handle.SetTruth(*opts.GroundTruth)
		}
		coreOpts.Tracer = trace.Combine(coreOpts.Tracer, handle)
	}
	// The calibration probe rides the same chain under the same
	// contract; with calibration off this is a single nil check.
	var probe *calib.Probe
	if db.calib != nil {
		var gt *calib.Truth
		if opts.GroundTruth != nil {
			gt = &calib.Truth{Value: *opts.GroundTruth, Level: opts.Confidence}
		}
		probe = db.calib.Track(opts.Label, gt)
		coreOpts.Tracer = trace.Combine(coreOpts.Tracer, probe)
	}
	if opts.OnProgress != nil {
		cb := opts.OnProgress
		coreOpts.OnStage = func(r core.StageRecord) {
			stdErr := 0.0
			if r.Variance > 0 {
				stdErr = sqrt(r.Variance)
			}
			cb(Progress{
				Stage:    r.Index,
				Estimate: r.Estimate,
				StdErr:   stdErr,
				Blocks:   r.Blocks,
				Spent:    r.Actual,
			})
		}
	}

	// Each estimate runs on its own session: a confined clock and
	// counter view over the shared catalog, making concurrent calls
	// independent (and bit-reproducible under a simulated clock).
	sess, sim := db.session(opts.Seed)
	res, err := core.NewEngine(sess).Count(q.expr, coreOpts)
	if err != nil {
		handle.Discard()
		db.endSession(sess, sim, 0)
		return nil, nil, err
	}
	db.endSession(sess, sim, res.Elapsed)
	var qt *QueryTrace
	if collector != nil {
		qt = collector.Trace()
	}
	return res, &Estimate{
		Value:       res.Estimate.Value,
		StdErr:      res.Estimate.StdErr(),
		Interval:    res.Interval.Half,
		Confidence:  opts.Confidence,
		Stages:      res.Stages,
		Blocks:      res.Blocks,
		Elapsed:     res.Elapsed,
		Utilization: res.Utilization,
		Overspent:   res.Overspent,
		Overrun:     res.Overspend,
		StopReason:  res.StopReason,
		Trace:       qt,
	}, nil
}

// Lo returns the lower bound of the confidence interval.
func (e *Estimate) Lo() float64 { return e.Value - e.Interval }

// Hi returns the upper bound of the confidence interval.
func (e *Estimate) Hi() float64 { return e.Value + e.Interval }

// Validate type-checks the query against the catalog without running it.
func (db *DB) Validate(q Query) error {
	if q.err != nil {
		return q.err
	}
	_, err := q.expr.Schema(db.catalog())
	return err
}

// histCat returns the DB's statistics catalog when requested and built.
func histCat(db *DB, use bool) *histogram.Catalog {
	if !use {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
