// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 5): the time-control performance tables for the
// selection (Fig. 5.1), intersection (Fig. 5.2) and join (Fig. 5.3)
// operations, plus ablations for the design choices DESIGN.md calls out
// (strategy choice, fulfillment plan, adaptive vs fixed cost formulas)
// and an estimator-quality sweep.
//
// Protocol, as in the paper: every table cell aggregates N independent
// trials (200 by default); each trial uses a fresh simulated machine
// (seeded clock jitter), freshly generated relations, and the engine in
// "ERAM mode" (Overrun) so the overspend of the final stage can be
// measured rather than truncated.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"tcq/internal/core"
	"tcq/internal/cost"
	"tcq/internal/exec"
	"tcq/internal/ra"
	"tcq/internal/stats"
	"tcq/internal/storage"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// Setup builds one trial's relations in st and returns the query, the
// first-stage selectivity assumptions, and the exact answer.
type Setup func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error)

// Variant is one row of an experiment table: a label, a strategy
// factory and optional engine overrides.
type Variant struct {
	Label    string
	Strategy func() timectrl.Strategy
	Plan     exec.Plan
	Model    func(profile storage.CostProfile, blockingFactor int) *cost.Model
	// Prestored switches the engine to exact prestored selectivities
	// (the §3.1 alternative to run-time estimation).
	Prestored bool
	// Sampling selects cluster (default) or simple random sampling.
	Sampling core.SamplingPlan
}

// Experiment describes one table to regenerate.
type Experiment struct {
	ID       string
	Title    string
	Quota    time.Duration
	Variants []Variant
	Setup    Setup
	// PaperNote documents what the paper reports for this table (used
	// by the CLI's -compare flag and EXPERIMENTS.md).
	PaperNote string
}

// RunOptions controls a harness run.
type RunOptions struct {
	Trials   int     // trials per row (default 200, the paper's count)
	BaseSeed int64   // trial i uses BaseSeed + i
	Jitter   float64 // simulated clock jitter (default 0.03)
	// Parallel bounds the worker goroutines per row (default
	// GOMAXPROCS). Results are deterministic regardless: every trial is
	// seeded independently and reduced in trial order.
	Parallel int
	// EngineParallel bounds the per-query term-evaluation worker pool
	// (core.Options.Parallelism; ≤ 1 = serial, the default). Engine
	// results are byte-identical for any value — the determinism goldens
	// are re-checked under EngineParallel=4 in CI.
	EngineParallel int
	// LoadSigma is the lognormal sigma of the per-stage system-load
	// factor (default 0.12), modelling the timeshared prototype's
	// between-stage variability — the reason the paper's d_β sweep
	// shows a gradual risk decline rather than a cliff.
	LoadSigma float64
	Profile   storage.CostProfile
	// TraceSink, when non-nil, supplies a tracer for each trial (keyed
	// by experiment ID, variant label and trial index). Trials run
	// concurrently, so each call must return a distinct tracer; the
	// caller replays or merges them in its own deterministic order. If
	// the returned tracer implements Discard() and the trial errors
	// before EndQuery, the harness calls it so live-progress sinks can
	// retire the abandoned query.
	TraceSink func(exp, label string, trial int) trace.Tracer
	// TruthSink, when non-nil, receives each trial's ground-truth
	// aggregate right after Setup (same trial keying as TraceSink, same
	// concurrency caveat: the callback must be safe to invoke from
	// concurrent trial goroutines). The calibration harness pairs it
	// with TraceSink to audit every trial's CI against the exact count.
	TruthSink func(exp, label string, trial int, truth int64)
	// Metrics, when set, aggregates engine counters across every trial
	// (the registry is concurrency-safe); with it a live telemetry
	// server can expose harness throughput while experiments run.
	Metrics *trace.Registry
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Trials <= 0 {
		o.Trials = 200
	}
	if o.Jitter == 0 {
		o.Jitter = 0.03
	}
	if o.LoadSigma == 0 {
		o.LoadSigma = 0.12
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Profile == (storage.CostProfile{}) {
		o.Profile = storage.SunProfile()
	}
	return o
}

// Row aggregates one variant's trials in the paper's table format.
type Row struct {
	Label       string
	Trials      int
	Stages      float64 // mean stages completed within the quota
	RiskPct     float64 // % of trials that overspent
	Ovsp        float64 // mean overspend (s) among overspending trials
	Utilization float64 // mean utilization (%)
	Blocks      float64 // mean disk blocks evaluated within the quota
	RelErrPct   float64 // mean |estimate − truth| / truth (%), extra column
}

// Run executes the experiment and returns one row per variant.
func (e Experiment) Run(opts RunOptions) ([]Row, error) {
	opts = opts.withDefaults()
	rows := make([]Row, 0, len(e.Variants))
	for vi, v := range e.Variants {
		type trialOut struct {
			res   *core.Result
			truth int64
			err   error
		}
		outs := make([]trialOut, opts.Trials)
		sem := make(chan struct{}, opts.Parallel)
		var wg sync.WaitGroup
		for trial := 0; trial < opts.Trials; trial++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(trial int) {
				defer func() {
					<-sem
					wg.Done()
				}()
				seed := opts.BaseSeed + int64(vi*1_000_003+trial)
				clk := vclock.NewSim(seed, opts.Jitter)
				if opts.LoadSigma > 0 {
					clk.SetLoadSigma(opts.LoadSigma)
				}
				st := storage.NewStore(clk, opts.Profile, storage.DefaultBlockSize)
				rng := rand.New(rand.NewSource(seed))
				expr, initial, truth, err := e.Setup(st, rng)
				if err != nil {
					outs[trial] = trialOut{err: fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)}
					return
				}
				if opts.TruthSink != nil {
					opts.TruthSink(e.ID, v.Label, trial, truth)
				}
				engOpts := core.Options{
					Quota:                  e.Quota,
					Mode:                   core.Overrun,
					Plan:                   v.Plan,
					Sampling:               v.Sampling,
					Initial:                initial,
					Strategy:               v.Strategy(),
					Seed:                   seed,
					PrestoredSelectivities: v.Prestored,
					Parallelism:            opts.EngineParallel,
				}
				if v.Model != nil {
					bf := storage.DefaultBlockSize / workload.PaperTupleSize
					engOpts.Model = v.Model(opts.Profile, bf)
				}
				if opts.TraceSink != nil {
					engOpts.Tracer = opts.TraceSink(e.ID, v.Label, trial)
				}
				engOpts.Metrics = opts.Metrics
				res, err := core.NewEngine(st).Count(expr, engOpts)
				if err != nil {
					// A failed trial never reaches EndQuery, so give sinks
					// tracking live progress (telemetry handles) the chance
					// to drop it from their in-flight set.
					if d, ok := engOpts.Tracer.(interface{ Discard() }); ok {
						d.Discard()
					}
					outs[trial] = trialOut{err: fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)}
					return
				}
				outs[trial] = trialOut{res: res, truth: truth}
			}(trial)
		}
		wg.Wait()

		var stages, util, blocks, relErr stats.Accumulator
		var ovsp stats.Accumulator
		overspends := 0
		for _, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			res := o.res
			stages.Add(float64(res.Stages))
			util.Add(res.Utilization * 100)
			blocks.Add(float64(res.Blocks))
			if res.Overspent {
				overspends++
				ovsp.Add(res.Overspend.Seconds())
			}
			if o.truth > 0 && res.Estimate.Value > 0 {
				re := (res.Estimate.Value - float64(o.truth)) / float64(o.truth)
				if re < 0 {
					re = -re
				}
				relErr.Add(re * 100)
			}
		}
		rows = append(rows, Row{
			Label:       v.Label,
			Trials:      opts.Trials,
			Stages:      stages.Mean(),
			RiskPct:     100 * float64(overspends) / float64(opts.Trials),
			Ovsp:        ovsp.Mean(),
			Utilization: util.Mean(),
			Blocks:      blocks.Mean(),
			RelErrPct:   relErr.Mean(),
		})
	}
	return rows, nil
}

// Render formats rows as a paper-style text table.
func Render(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %7s %7s %7s %7s %7s %7s %8s\n",
		"variant", "trials", "stages", "risk%", "ovsp(s)", "util%", "blocks", "relerr%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %7d %7.2f %7.1f %7.2f %7.1f %7.1f %8.1f\n",
			r.Label, r.Trials, r.Stages, r.RiskPct, r.Ovsp, r.Utilization, r.Blocks, r.RelErrPct)
	}
	return b.String()
}

// RenderMarkdown formats rows as a GitHub-flavoured markdown table
// (used to regenerate EXPERIMENTS.md sections).
func RenderMarkdown(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", title)
	b.WriteString("| variant | trials | stages | risk % | ovsp s | util % | blocks | relerr % |\n")
	b.WriteString("|---------|-------:|-------:|-------:|-------:|-------:|-------:|---------:|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.2f | %.1f | %.2f | %.1f | %.1f | %.1f |\n",
			r.Label, r.Trials, r.Stages, r.RiskPct, r.Ovsp, r.Utilization, r.Blocks, r.RelErrPct)
	}
	return b.String()
}

// dBetaVariants builds the paper's d_β sweep rows for the
// One-at-a-Time-Interval strategy.
func dBetaVariants(dBetas []float64) []Variant {
	out := make([]Variant, 0, len(dBetas))
	for _, d := range dBetas {
		d := d
		out = append(out, Variant{
			Label:    fmt.Sprintf("dβ=%g", d),
			Strategy: func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: d} },
		})
	}
	return out
}

// PaperDBetas is the d_β sweep of Figures 5.1 and 5.2.
var PaperDBetas = []float64{0, 12, 24, 48, 72}

// Fig51Selection builds the Fig. 5.1 experiment: COUNT of a
// one-comparison selection over a 10,000-tuple relation, 10-second
// quota, with outputTuples ∈ {1000, 5000} matching the paper's two
// sub-tables.
func Fig51Selection(outputTuples int) Experiment {
	return Experiment{
		ID:    fmt.Sprintf("fig5.1-%d", outputTuples),
		Title: fmt.Sprintf("Fig 5.1 — selection, %d output tuples, quota 10s", outputTuples),
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, err := workload.SelectRelation(st, "r", workload.PaperTuples, outputTuples, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Select{Input: &ra.Base{Name: "r"},
				Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(outputTuples)}}}
			// Fig. 3.3 / Section 5: maximum selectivity (1) at stage 1,
			// selection formula with one integer comparison.
			return e, timectrl.DefaultInitials(), int64(outputTuples), nil
		},
		Variants: dBetaVariants(PaperDBetas),
		PaperNote: "Paper (1,000 out): stages 1.56→4.12, risk 56→2%, ovsp 0.11→0.02s, util 63→98%, " +
			"blocks 54,61,81,84,83 across dβ=0,12,24,48,72. Shape: risk↓, stages↑, util↑, blocks peak then dip.",
	}
}

// Fig52Intersection builds the Fig. 5.2 experiment: COUNT(r1 ∩ r2) with
// 10,000 output tuples (identical relations), 10-second quota.
func Fig52Intersection() Experiment {
	return Experiment{
		ID:    "fig5.2",
		Title: "Fig 5.2 — intersection, 10,000 output tuples, quota 10s",
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, _, err := workload.IntersectPair(st, "r1", "r2", workload.PaperTuples, workload.PaperTuples, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Intersect{Inputs: []ra.Expr{&ra.Base{Name: "r1"}, &ra.Base{Name: "r2"}}}
			// Section 5.B: initial selectivity 1/max(|r1|,|r2|) — the
			// Initials zero value requests exactly that.
			return e, timectrl.DefaultInitials(), int64(workload.PaperTuples), nil
		},
		Variants: dBetaVariants(PaperDBetas),
		PaperNote: "Paper: risk 44→0%, ovsp 0.18→0.00s across dβ=0..72; blocks rise 41.8→54.1 then dip to 51.9 " +
			"between dβ=48 and 72 (overhead + merge complexity dominate). At dβ=72 the leftover time could not " +
			"fund another full-fulfillment stage.",
	}
}

// Fig53Join builds the Fig. 5.3 experiment: COUNT(r1 ⋈ r2) with 70,000
// output tuples (true selectivity 7e-4), one join attribute, 2.5-second
// quota, initial join selectivity 0.1 (the paper's choice — assuming 1
// made the first stage too small to measure).
func Fig53Join() Experiment {
	return Experiment{
		ID:    "fig5.3",
		Title: "Fig 5.3 — join, 70,000 output tuples, quota 2.5s",
		Quota: 2500 * time.Millisecond,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, _, err := workload.JoinPair(st, "r1", "r2", workload.PaperTuples, 70000, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Join{Left: &ra.Base{Name: "r1"}, Right: &ra.Base{Name: "r2"},
				On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
			init := timectrl.DefaultInitials()
			init.Join = 0.1
			return e, init, 70000, nil
		},
		Variants: dBetaVariants(PaperDBetas),
		PaperNote: "Paper: dβ=0: stages 1.59, risk 41%, ovsp 0.19s, util 71%; dβ=12: stages 1.94, risk 5.3%, " +
			"ovsp 0.18s, util 91%. For dβ=24,48,72 the time left was not enough for a further full-fulfillment " +
			"stage, so evaluation terminated (risk 0, ovsp 0).",
	}
}

// AblationStrategies compares the three time-control strategies of §3.3
// on the selection workload (no table in the paper; §3.3 argues the
// tradeoffs qualitatively).
func AblationStrategies() Experiment {
	return Experiment{
		ID:    "ablation-strategy",
		Title: "Ablation — time-control strategies (selection, 1,000 out, quota 10s)",
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, err := workload.SelectRelation(st, "r", workload.PaperTuples, 1000, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Select{Input: &ra.Base{Name: "r"},
				Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(1000)}}}
			return e, timectrl.DefaultInitials(), 1000, nil
		},
		Variants: []Variant{
			{Label: "one-at-a-time dβ=12", Strategy: func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: 12} }},
			{Label: "one-at-a-time dβ=48", Strategy: func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: 48} }},
			{Label: "single-interval dα=1", Strategy: func() timectrl.Strategy { return &timectrl.SingleInterval{DAlpha: 1} }},
			{Label: "single-interval dα=3", Strategy: func() timectrl.Strategy { return &timectrl.SingleInterval{DAlpha: 3} }},
			{Label: "heuristic γ=0.5", Strategy: func() timectrl.Strategy { return &timectrl.Heuristic{Gamma: 0.5, CommitBelow: time.Second} }},
		},
		PaperNote: "No paper table; §3.3 predicts One-at-a-Time is simpler/cheaper while Single-Interval " +
			"controls whole-query risk more directly.",
	}
}

// AblationFulfillment compares the full and partial fulfillment plans
// on the intersection workload (§4 discusses the tradeoff; the partial
// plan is in the tech report).
func AblationFulfillment() Experiment {
	// A fixed-share heuristic forces several stages per run; one-stage
	// runs make the plans identical by construction.
	base := func(plan exec.Plan, label string) Variant {
		return Variant{
			Label:    label,
			Plan:     plan,
			Strategy: func() timectrl.Strategy { return &timectrl.Heuristic{Gamma: 0.3, CommitBelow: time.Second} },
		}
	}
	return Experiment{
		ID:    "ablation-fulfillment",
		Title: "Ablation — full vs partial fulfillment (intersection, quota 10s)",
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, _, err := workload.IntersectPair(st, "r1", "r2", workload.PaperTuples, workload.PaperTuples, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Intersect{Inputs: []ra.Expr{&ra.Base{Name: "r1"}, &ra.Base{Name: "r2"}}}
			return e, timectrl.DefaultInitials(), int64(workload.PaperTuples), nil
		},
		Variants: []Variant{
			base(exec.FullFulfillment, "full fulfillment"),
			base(exec.PartialFulfillment, "partial fulfillment"),
		},
		PaperNote: "Paper §4: full fulfillment makes the most use of sampled data (time-efficient) at the cost " +
			"of keeping all intermediate results; partial is cheaper per stage but covers fewer points.",
	}
}

// AblationAdaptiveCost compares adaptive and fixed-form cost formulas
// (§4's motivating claim) with designer defaults 3x off the true
// machine.
func AblationAdaptiveCost() Experiment {
	// Defaults 2x too EXPENSIVE (the safe miscalibration direction a
	// designer would pick): a fixed-form model keeps halving its stage
	// sizes and refuses affordable final stages, paying the per-stage
	// overhead many times over; the adaptive model calibrates after the
	// first stage and spends the quota on actual sampling.
	mkModel := func(adaptive bool) func(p storage.CostProfile, bf int) *cost.Model {
		return func(p storage.CostProfile, bf int) *cost.Model {
			return cost.NewModel(cost.TrueCoefficients(p, bf).Scale(2), adaptive)
		}
	}
	strat := func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: 12} }
	return Experiment{
		ID:    "ablation-adaptive",
		Title: "Ablation — adaptive vs fixed-form cost formulas (selection, defaults 2x too expensive)",
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, err := workload.SelectRelation(st, "r", workload.PaperTuples, 1000, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Select{Input: &ra.Base{Name: "r"},
				Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(1000)}}}
			return e, timectrl.DefaultInitials(), 1000, nil
		},
		Variants: []Variant{
			{Label: "adaptive", Strategy: strat, Model: mkModel(true)},
			{Label: "fixed-form", Strategy: strat, Model: mkModel(false)},
		},
		PaperNote: "Paper §4: fixed-form coefficients 'are not flexible enough'; adaptive formulas fit the " +
			"query at run time. With conservative (2x) defaults the fixed model persistently halves its stage " +
			"sizes, paying the per-stage overhead many more times for the same quota (more stages, no more blocks).",
	}
}

// AblationSelectivity compares the paper's run-time selectivity
// estimation with the §3.1 alternative it discusses and rejects for
// general use: prestored (exact, maintained) per-operator
// selectivities.
func AblationSelectivity() Experiment {
	strat := func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: 12} }
	e := Experiment{
		ID:    "ablation-selectivity",
		Title: "Ablation — run-time vs prestored selectivities (join, quota 2.5s)",
		Quota: 2500 * time.Millisecond,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, _, err := workload.JoinPair(st, "r1", "r2", workload.PaperTuples, 70000, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			expr := &ra.Join{Left: &ra.Base{Name: "r1"}, Right: &ra.Base{Name: "r2"},
				On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
			init := timectrl.DefaultInitials()
			init.Join = 0.1
			return expr, init, 70000, nil
		},
		Variants: []Variant{
			{Label: "run-time estimation", Strategy: strat},
			{Label: "prestored (oracle)", Strategy: strat, Prestored: true},
		},
		PaperNote: "Paper §3.1: prestored selectivities are 'simple and may have a very good performance' but " +
			"need maintenance and a stored entry per (operator, operand, formula) combination; run-time " +
			"estimation 'has the greatest flexibility'. Expect the oracle to size its first stage correctly " +
			"(no conservative sel=0.1 guess) and waste less of the quota.",
	}
	return e
}

// AblationSampling compares the paper's cluster sampling plan with
// tuple-level simple random sampling (the Fig. 3.2 decision): under SRS
// every sampled tuple costs a full block read.
func AblationSampling() Experiment {
	strat := func() timectrl.Strategy { return &timectrl.OneAtATime{DBeta: 12} }
	return Experiment{
		ID:    "ablation-sampling",
		Title: "Ablation — cluster vs simple random sampling (selection, quota 10s)",
		Quota: 10 * time.Second,
		Setup: func(st *storage.Store, rng *rand.Rand) (ra.Expr, timectrl.Initials, int64, error) {
			if _, err := workload.SelectRelation(st, "r", workload.PaperTuples, 1000, rng); err != nil {
				return nil, timectrl.Initials{}, 0, err
			}
			e := &ra.Select{Input: &ra.Base{Name: "r"},
				Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(1000)}}}
			return e, timectrl.DefaultInitials(), 1000, nil
		},
		Variants: []Variant{
			{Label: "cluster (blocks)", Strategy: strat, Sampling: core.ClusterSampling},
			{Label: "simple random (tuples)", Strategy: strat, Sampling: core.SimpleRandomSampling},
		},
		PaperNote: "Paper §2/Fig 3.2: the cluster sampling plan 'has the advantages of efficiency in sampling " +
			"and in evaluation' — under SRS each random tuple costs a whole block read, so for the same quota " +
			"far fewer tuples are evaluated and the estimate is worse. (Note: the 'blocks' column counts sample " +
			"units — 5-tuple blocks for cluster, single tuples for SRS.)",
	}
}

// AllExperiments returns every table the harness can regenerate, in
// DESIGN.md order.
func AllExperiments() []Experiment {
	return []Experiment{
		Fig51Selection(1000),
		Fig51Selection(5000),
		Fig52Intersection(),
		Fig53Join(),
		AblationStrategies(),
		AblationFulfillment(),
		AblationAdaptiveCost(),
		AblationSelectivity(),
		AblationSampling(),
	}
}

// ByID finds an experiment by identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
