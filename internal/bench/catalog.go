package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"tcq/internal/catalog"
	"tcq/internal/core"
	"tcq/internal/stats"
	"tcq/internal/storage"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// CatalogRow aggregates one variant's cold-run/warm-rerun trials: every
// trial builds a fresh machine and sample catalog, runs the query cold
// (a catalog miss that plants the shape's reuse hint) and reruns the
// identical shape warm (a catalog hit replaying the materialized
// permutations, first stage sized from the resolution ladder).
type CatalogRow struct {
	Label  string
	Trials int
	// Hits/Misses/Stale sum the per-trial catalog counters (each trial
	// performs exactly one miss then one hit when reuse works).
	Hits, Misses, Stale int64
	// ColdStages/WarmStages are mean stage counts; SkippedStages is the
	// mean per-trial stage saving max(0, cold−warm) — the discovery
	// stages the catalog-sized warm first stage replaced.
	ColdStages, WarmStages, SkippedStages float64
	// ColdBlocks/WarmBlocks are mean sample blocks evaluated within the
	// quota; BlocksReused sums the warm runs' catalog-served blocks.
	ColdBlocks, WarmBlocks float64
	BlocksReused           int64
	// ColdRelErr/WarmRelErr are mean |estimate−truth|/truth (%).
	ColdRelErr, WarmRelErr float64
	// ColdCoverPct/WarmCoverPct are the shares of trials whose final CI
	// covered the exact answer. The warm number is the warm-path
	// honesty check (nominal 95%); the cold number is its baseline —
	// warm must not be systematically below cold.
	ColdCoverPct, WarmCoverPct float64
}

// RunCatalog executes the cold/warm reuse protocol for every variant.
// Each trial is seeded exactly like Run's, builds its own catalog (so
// trials stay independent and the report is deterministic for any
// -parallel worker count), and reuses the trial's store across both
// runs — the warm rerun sees identical data, which is what makes the
// hit legal.
func (e Experiment) RunCatalog(opts RunOptions) ([]CatalogRow, error) {
	opts = opts.withDefaults()
	rows := make([]CatalogRow, 0, len(e.Variants))
	for vi, v := range e.Variants {
		type trialOut struct {
			cold, warm *core.Result
			truth      int64
			cstats     catalog.Stats
			err        error
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
				cold, warm, truth, cs, err := e.catalogTrial(vi, trial, opts)
				outs[trial] = trialOut{cold: cold, warm: warm, truth: truth, cstats: cs, err: err}
			}(trial)
		}
		wg.Wait()

		var coldStages, warmStages, skipped stats.Accumulator
		var coldBlocks, warmBlocks stats.Accumulator
		var coldErr, warmErr stats.Accumulator
		row := CatalogRow{Label: v.Label, Trials: opts.Trials}
		coldCovered, warmCovered := 0, 0
		for _, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			coldStages.Add(float64(o.cold.Stages))
			warmStages.Add(float64(o.warm.Stages))
			skipped.Add(float64(skippedStages(o.cold, o.warm)))
			coldBlocks.Add(float64(o.cold.Blocks))
			warmBlocks.Add(float64(o.warm.Blocks))
			coldErr.Add(relErrPct(o.cold, o.truth))
			warmErr.Add(relErrPct(o.warm, o.truth))
			if covers(o.cold, o.truth) {
				coldCovered++
			}
			if covers(o.warm, o.truth) {
				warmCovered++
			}
			row.Hits += o.cstats.Hits
			row.Misses += o.cstats.Misses
			row.Stale += o.cstats.Stale
			row.BlocksReused += o.cstats.BlocksReused
		}
		row.ColdStages = coldStages.Mean()
		row.WarmStages = warmStages.Mean()
		row.SkippedStages = skipped.Mean()
		row.ColdBlocks = coldBlocks.Mean()
		row.WarmBlocks = warmBlocks.Mean()
		row.ColdRelErr = coldErr.Mean()
		row.WarmRelErr = warmErr.Mean()
		row.ColdCoverPct = 100 * float64(coldCovered) / float64(opts.Trials)
		row.WarmCoverPct = 100 * float64(warmCovered) / float64(opts.Trials)
		rows = append(rows, row)
	}
	return rows, nil
}

// skippedStages counts the discovery stages the warm run saved: the
// cold run needs N stages to grow its sample to the stopping coverage,
// the warm run's catalog-sized first stage jumps most of the way there
// immediately, so it finishes the same quota in fewer stages. Clamped
// at zero — sampling noise can make an individual warm trial take an
// extra stage.
func skippedStages(cold, warm *core.Result) int {
	if n := cold.Stages - warm.Stages; n > 0 {
		return n
	}
	return 0
}

// covers reports whether the run's final CI contains the exact answer.
func covers(res *core.Result, truth int64) bool {
	return abs(res.Estimate.Value-float64(truth)) <= res.Interval.Half
}

func relErrPct(res *core.Result, truth int64) float64 {
	if truth <= 0 || res.Estimate.Value <= 0 {
		return 0
	}
	return 100 * abs(res.Estimate.Value-float64(truth)) / float64(truth)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RenderCatalog formats catalog rows as a text table (same layout
// conventions as Render).
func RenderCatalog(title string, rows []CatalogRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %6s %5s %5s %5s %8s %8s %6s %8s %8s %9s %9s %9s %9s\n",
		"variant", "trials", "hit", "miss", "stale", "cold-stg", "warm-stg", "skip",
		"cold-blk", "warm-blk", "cold-err%", "warm-err%", "cold-cov%", "warm-cov%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %6d %5d %5d %5d %8.2f %8.2f %6.2f %8.1f %8.1f %9.1f %9.1f %9.1f %9.1f\n",
			r.Label, r.Trials, r.Hits, r.Misses, r.Stale, r.ColdStages, r.WarmStages,
			r.SkippedStages, r.ColdBlocks, r.WarmBlocks, r.ColdRelErr, r.WarmRelErr,
			r.ColdCoverPct, r.WarmCoverPct)
	}
	return b.String()
}

// catalogTrial runs one seeded cold/warm pair: fresh machine, fresh
// per-trial catalog with uniform sample sets for every relation, one
// cold run (miss; records the shape hint) and one warm rerun (hit) on
// the same store.
func (e Experiment) catalogTrial(vi, trial int, opts RunOptions) (cold, warm *core.Result, truth int64, cs catalog.Stats, err error) {
	v := e.Variants[vi]
	seed := opts.BaseSeed + int64(vi*1_000_003+trial)
	clk := vclock.NewSim(seed, opts.Jitter)
	if opts.LoadSigma > 0 {
		clk.SetLoadSigma(opts.LoadSigma)
	}
	st := storage.NewStore(clk, opts.Profile, storage.DefaultBlockSize)
	rng := rand.New(rand.NewSource(seed))
	expr, initial, truth, err := e.Setup(st, rng)
	if err != nil {
		return nil, nil, 0, cs, fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)
	}
	cat := catalog.New(seed)
	if err := cat.BuildFromStore(st); err != nil {
		return nil, nil, 0, cs, fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)
	}
	run := func() (*core.Result, error) {
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
			Catalog:                cat,
			Metrics:                opts.Metrics,
		}
		if v.Model != nil {
			bf := storage.DefaultBlockSize / workload.PaperTupleSize
			engOpts.Model = v.Model(opts.Profile, bf)
		}
		return core.NewEngine(st).Count(expr, engOpts)
	}
	if cold, err = run(); err != nil {
		return nil, nil, 0, cs, fmt.Errorf("bench %s/%s trial %d (cold): %w", e.ID, v.Label, trial, err)
	}
	if warm, err = run(); err != nil {
		return nil, nil, 0, cs, fmt.Errorf("bench %s/%s trial %d (warm): %w", e.ID, v.Label, trial, err)
	}
	return cold, warm, truth, cat.Stats(), nil
}
