package bench

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tcq/internal/core"
	"tcq/internal/storage"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// evalWall runs one seeded trial of variant vi and returns the wall
// time of the engine evaluation alone — the simulated machine, the
// relations and the query are built outside the measured region, where
// workload generation would otherwise drown the in-query effect.
func (e Experiment) evalWall(vi, trial int, opts RunOptions, workers int) (time.Duration, error) {
	opts = opts.withDefaults()
	v := e.Variants[vi]
	seed := opts.BaseSeed + int64(vi*1_000_003+trial)
	clk := vclock.NewSim(seed, opts.Jitter)
	if opts.LoadSigma > 0 {
		clk.SetLoadSigma(opts.LoadSigma)
	}
	st := storage.NewStore(clk, opts.Profile, storage.DefaultBlockSize)
	rng := rand.New(rand.NewSource(seed))
	expr, initial, _, err := e.Setup(st, rng)
	if err != nil {
		return 0, fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)
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
		Parallelism:            workers,
	}
	if v.Model != nil {
		bf := storage.DefaultBlockSize / workload.PaperTupleSize
		engOpts.Model = v.Model(opts.Profile, bf)
	}
	start := time.Now()
	if _, err := core.NewEngine(st).Count(expr, engOpts); err != nil {
		return 0, fmt.Errorf("bench %s/%s trial %d: %w", e.ID, v.Label, trial, err)
	}
	return time.Since(start), nil
}

func benchEval(b *testing.B, workers int) {
	e := Fig53Join()
	opts := RunOptions{Trials: 1, BaseSeed: 1}.withDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.evalWall(0, i%40, opts, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalFig53Serial(b *testing.B) { benchEval(b, 1) }
func BenchmarkEvalFig53Par4(b *testing.B)   { benchEval(b, 4) }
