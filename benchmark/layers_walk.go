package main

// The engine's layers, timed from outside. walk re-walks
// core.Engine.Count's cold cluster-sampling stage loop from the layers'
// public functions with a span around each call. It must return
// bit-identical results to Engine.Count for every query — that
// equality is what licenses calling its spans "the layers of Count".
// A later change that puts spans inside the program replaces this file
// and layers_service.go; no end-to-end number depends on either.

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tcq/internal/core"
	"tcq/internal/cost"
	"tcq/internal/exec"
	"tcq/internal/sampling"
	"tcq/internal/storage"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/vclock"
)

const (
	dBeta      = 12   // the public surface's default One-at-a-Time risk knob
	confidence = 0.95 // and its default CI level
	maxStages  = 1000 // core.Options' default safety valve
)

// engineResult is what Engine.Count and the walk must agree on.
type engineResult struct {
	value, variance float64
	stages, blocks  int
	elapsed         time.Duration
}

// walkCounts are the work counters read at the layer boundaries.
type walkCounts struct {
	stagesRun     int // stages executed, including one that overran or was aborted
	searchIters   int
	blocksDrawn   int
	tuplesLoaded  int
	comparisons   int64
	deadlinePolls int64
	blocksRead    int64
}

func (c *walkCounts) add(o walkCounts) {
	c.stagesRun += o.stagesRun
	c.searchIters += o.searchIters
	c.blocksDrawn += o.blocksDrawn
	c.tuplesLoaded += o.tuplesLoaded
	c.comparisons += o.comparisons
	c.deadlinePolls += o.deadlinePolls
	c.blocksRead += o.blocksRead
}

// newSim is the per-query clock DB.session derives: a Sim seeded from
// the DB seed and the query seed, with the DB's jitter and load noise.
func (d *dataset) newSim(i int) *vclock.Sim {
	sim := vclock.NewSim(d.seed*1_000_003+d.seed+int64(i), clockJitter)
	sim.SetLoadSigma(loadSigma)
	return sim
}

// initials are query i's first-stage selectivity assumptions, mapped
// from the public option as DB.run maps them.
func (d *dataset) initials(i int) timectrl.Initials {
	init := timectrl.DefaultInitials()
	if sel := d.w.shapes[d.w.shapeOf(i)].initJoinSel; sel > 0 {
		init.Join = sel
	}
	return init
}

// engineCount runs query i through core.Engine.Count exactly as
// DB.CountEstimate does (same session clock, same options, a shared
// metrics registry), timing only the Count call.
func (d *dataset) engineCount(i int, reg *trace.Registry) (engineResult, time.Duration, error) {
	sess := d.db.Store().Session(d.newSim(i))
	mode := core.Overrun
	if d.w.hard {
		mode = core.HardDeadline
	}
	opts := core.Options{
		Quota:       d.w.shapes[d.w.shapeOf(i)].quota,
		Strategy:    &timectrl.OneAtATime{DBeta: dBeta},
		Mode:        mode,
		Plan:        exec.FullFulfillment,
		Sampling:    core.ClusterSampling,
		Metrics:     reg,
		Initial:     d.initials(i),
		Confidence:  confidence,
		Seed:        d.seed + int64(i),
		Parallelism: runtime.GOMAXPROCS(0),
	}
	t0 := time.Now()
	res, err := core.NewEngine(sess).Count(d.exprs[d.w.shapeOf(i)], opts)
	dt := time.Since(t0)
	sess.MergeCounters()
	if err != nil {
		return engineResult{}, dt, err
	}
	return engineResult{
		value: res.Estimate.Value, variance: res.Estimate.Variance,
		stages: res.Stages, blocks: res.Blocks, elapsed: res.Elapsed,
	}, dt, nil
}

// walk evaluates query i layer by layer, recording a span per call.
func (d *dataset) walk(rec *recorder, i int) (engineResult, walkCounts, error) {
	sp := rec.begin(spNewSim, i)
	sim := d.newSim(i)
	rec.end(sp)
	sp = rec.begin(spSession, i)
	sess := d.db.Store().Session(sim)
	rec.end(sp)

	sp = rec.begin(spCount, i)
	res, counts, err := d.walkCount(rec, sess, i)
	rec.end(sp)

	counts.blocksRead = sess.Counters().BlocksRead
	sp = rec.begin(spSession, i)
	sess.MergeCounters()
	rec.end(sp)
	return res, counts, err
}

// walker is the state Count keeps across stages of one query.
type walker struct {
	rec       *recorder
	i         int // query index, stamped on every span
	quota     time.Duration
	q         *exec.Query
	env       *exec.Env
	feedNames []string
	samplers  map[string]*sampling.RelationSample
	maxBlocks int
	model     *cost.Model
	strategy  *timectrl.OneAtATime
	initial   timectrl.Initials
	clock     vclock.Clock
	start     time.Duration

	res    engineResult
	counts walkCounts
}

// walkCount mirrors core.Engine.Count for a COUNT under cluster
// sampling, One-at-a-Time planning, full fulfillment, no tracer, no
// catalog and no stopping criterion beyond the quota — the path every
// benchmark query takes. Statement order follows Count's: the session
// clock and the sampling RNG must see the same sequence of calls.
func (d *dataset) walkCount(rec *recorder, sess *storage.Store, i int) (engineResult, walkCounts, error) {
	s := &d.w.shapes[d.w.shapeOf(i)]
	w := &walker{rec: rec, i: i, quota: s.quota, initial: d.initials(i)}
	workers := runtime.GOMAXPROCS(0)
	termWorkers := workers
	if d.w.hard {
		termWorkers = 1 // Count keeps hard-deadline terms serial
	}

	sp := rec.begin(spBuild, i)
	cat := exec.StoreCatalog{Store: sess}
	w.env = exec.NewEnv(sess)
	q, err := exec.NewTieredParallelQuery(d.exprs[d.w.shapeOf(i)], w.env, cat, exec.FullFulfillment, termWorkers, workers)
	rec.end(sp)
	if err != nil {
		return engineResult{}, w.counts, err
	}
	w.q = q
	w.feedNames = q.FeedNames()
	if len(w.feedNames) == 0 {
		return engineResult{}, w.counts, errors.New("walk: query references no relations")
	}

	sp = rec.begin(spRngSeed, i)
	rng := rand.New(rand.NewSource(d.seed + int64(i)))
	rec.end(sp)

	w.samplers = map[string]*sampling.RelationSample{}
	for _, name := range w.feedNames {
		f := q.Feeds[name]
		units := f.Rel.NumBlocks()
		sp = rec.begin(spSamplingNew, i)
		w.samplers[name] = sampling.NewRelationSample(name, units, f.Rel.NumTuples(), rng)
		rec.end(sp)
		if units > w.maxBlocks {
			w.maxBlocks = units
		}
	}

	bf := q.Feeds[w.feedNames[0]].Rel.BlockingFactor()
	w.model = cost.NewModel(cost.DefaultCoefficients(sess.Costs(), bf), true)
	w.strategy = &timectrl.OneAtATime{DBeta: dBeta}

	w.clock = sess.Clock()
	w.start = w.clock.Now()
	if d.w.hard {
		w.env.SetDeadline(vclock.NewDeadline(w.clock, w.quota))
	}

	for stageIdx := 1; stageIdx <= maxStages; stageIdx++ {
		sp = rec.begin(spStage, i)
		more, err := w.stage(stageIdx)
		rec.end(sp)
		if err != nil {
			return engineResult{}, w.counts, err
		}
		if !more {
			break
		}
	}
	w.res.elapsed = w.clock.Now() - w.start
	w.counts.comparisons = w.env.Comparisons
	w.counts.deadlinePolls = w.env.DeadlinePolls
	return w.res, w.counts, nil
}

// stage runs one iteration of Count's stage loop and reports whether
// another stage may follow.
func (w *walker) stage(stageIdx int) (more bool, err error) {
	rec, i := w.rec, w.i
	if lv, ok := w.clock.(interface{ ResampleLoad() }); ok {
		lv.ResampleLoad()
	}
	remaining := w.quota - (w.clock.Now() - w.start)
	if remaining <= 0 {
		return false, nil
	}

	sp := rec.begin(spSnapshot, i)
	var roots []*exec.NodeInfo
	for _, te := range w.q.Terms {
		roots = append(roots, exec.Snapshot(te.Root))
	}
	rec.end(sp)

	maxFraction, covered := 1.0, 1.0
	for _, smp := range w.samplers {
		if rem := float64(smp.Remaining()) / float64(smp.DTotal); rem < maxFraction {
			maxFraction = rem
		}
		if cum := smp.Fraction(); cum < covered {
			covered = cum
		}
	}
	if maxFraction <= 0 {
		return false, nil // census reached
	}
	minFraction := 1 / float64(w.maxBlocks)
	w.strategy.MinFraction = minFraction
	planIn := timectrl.PlanInput{
		Roots:       roots,
		Model:       w.model,
		Remaining:   remaining,
		Stage:       stageIdx,
		CoveredFrac: covered,
		MaxFraction: maxFraction,
		Initial:     w.initial,
	}
	sp = rec.begin(spPlan, i)
	plan := w.strategy.PlanStage(planIn)
	rec.end(sp)
	w.counts.searchIters += plan.Iterations
	if plan.Fraction <= 0 && stageIdx > 1 {
		return false, nil // remaining quota too small for another stage
	}
	if plan.Fraction <= 0 {
		plan.Fraction = minFraction // stage 1 always runs
	}

	// Probe, not part of Count: one QCOST evaluation at the planned
	// fraction, the unit of work the planner's search repeats
	// search_iters times. Pure — no clock charge, no RNG draw.
	sp = rec.begin(spPredictProbe, i)
	w.model.PredictStage(roots, plan.Fraction, func(n *exec.NodeInfo, newPoints float64) float64 {
		if n.Op == exec.OpBase {
			return 1
		}
		return timectrl.ComputeSelPlus(timectrl.Selectivity(n, w.initial), dBeta, newPoints, covered)
	})
	rec.end(sp)

	w.counts.stagesRun++
	stageStart := w.clock.Now()
	stageBlocks := 0
	aborted := false
	for _, name := range w.feedNames {
		f := w.q.Feeds[name]
		smp := w.samplers[name]
		k := int(math.Round(plan.Fraction * float64(smp.DTotal)))
		if k < 1 {
			k = 1
		}
		sp = rec.begin(spDraw, i)
		blocks := smp.Draw(k)
		rec.end(sp)
		if len(blocks) == 0 {
			continue
		}
		stageBlocks += len(blocks)
		sp = rec.begin(spLoad, i)
		err := f.LoadStage(blocks)
		rec.end(sp)
		if err != nil {
			if exec.IsAborted(err) {
				aborted = true
				break
			}
			return false, err
		}
		loaded := f.StageLen(f.Stages() - 1)
		w.counts.tuplesLoaded += loaded
		if err := smp.SetStageTuples(len(smp.Stages)-1, loaded); err != nil {
			return false, err
		}
	}
	w.counts.blocksDrawn += stageBlocks
	if !aborted {
		// Exhausted relations still need a stage entry so term stage
		// indices align.
		for _, name := range w.feedNames {
			f := w.q.Feeds[name]
			for f.Stages() < stageIdx {
				if err := f.LoadStage(nil); err != nil {
					return false, err
				}
			}
		}
		sp = rec.begin(spAdvance, i)
		err := w.q.AdvanceStage(stageIdx - 1)
		rec.end(sp)
		if err != nil {
			if !exec.IsAborted(err) {
				return false, err
			}
			aborted = true
		}
	}
	stageEnd := w.clock.Now()
	if aborted {
		return false, nil // hard deadline: the previous estimate stands
	}

	sp = rec.begin(spObserve, i)
	w.model.Observe(w.env.TakeTimings())
	rec.end(sp)
	w.strategy.ObserveStage(plan.Predicted, stageEnd-stageStart)

	sp = rec.begin(spEstimate, i)
	est := w.q.Estimate()
	rec.end(sp)

	if stageEnd-w.start > w.quota {
		return false, nil // overran: the stage does not count
	}
	w.res.value, w.res.variance = est.Value, est.Variance
	w.res.stages = stageIdx
	w.res.blocks += stageBlocks
	return true, nil
}
