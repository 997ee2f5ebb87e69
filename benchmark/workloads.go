package main

import (
	"fmt"
	"math/rand"
	"time"

	"tcq"
	"tcq/internal/ra"
	"tcq/internal/raparse"
	"tcq/internal/storage"
	gen "tcq/internal/workload"
)

// shape is one query form of a workload. The exact answer is known by
// construction of the generator (and re-checked against DB.Count once
// per run), so CI coverage and relative error need no second engine.
type shape struct {
	name  string
	ra    string // RA text: tcq.Parse in-process, QueryRequest.RA on the wire
	quota time.Duration
	// initJoinSel is EstimateOptions.InitialJoinSelectivity. The wire
	// protocol cannot express it, so wire workloads leave it 0.
	initJoinSel float64
	truth       float64
}

// workload is one set of inputs the benchmark runs. Query i of a run
// is shape i mod len(shapes) with sampling seed seed+i, so the same
// (workload, seed) always issues the same queries in the same order.
type workload struct {
	name string
	why  string
	// wire selects the end-to-end surface: a loopback server.Server
	// driven through client.Query over TCP instead of DB.CountEstimate.
	wire bool
	// hard arms HardDeadline on every query.
	hard   bool
	shapes []shape
	build  func(st *storage.Store, rng *rand.Rand) error
	// warmup is the number of leading untimed queries (caches fill, the
	// heap reaches steady state). prefix is the number of timed queries
	// after them whose answers a run keeps: the simulated-clock metrics,
	// result_digest and the checks cover exactly these, so they repeat
	// exactly for a seed whatever the box's speed. It is under half of
	// what the seed commit answers in the 20 s of a driver's run (three
	// quarters on join-scale, whose sample is the smallest). smokeN is the
	// fixed query count of -smoke runs.
	warmup int
	prefix int
	smokeN int
	// maxQPS sizes a timed phase's latency buffer, which is allocated
	// before the phase starts: about three times the seed commit's rate.
	maxQPS int
}

const (
	paperTuples = gen.PaperTuples // 10,000 tuples, 2,000 blocks
	scaleTuples = 50000
)

// paperShapes are the paper-size queries of Section 5 (Figs. 5.1-5.3)
// plus a difference, the one shape with two signed terms (term-level
// parallelism and lane replay).
func paperShapes(wireOnly bool) []shape {
	joinSel := 0.1 // the paper's first-stage join assumption
	if wireOnly {
		joinSel = 0
	}
	return []shape{
		{name: "select", ra: "select(r, a < 1000)", quota: 10 * time.Second, truth: 1000},
		{name: "intersect", ra: "intersect(i1, i2)", quota: 10 * time.Second, truth: paperTuples},
		{name: "join", ra: "join(j1, j2, a = a)", quota: 2500 * time.Millisecond, initJoinSel: joinSel, truth: 70000},
		{name: "diff", ra: "diff(d1, d2)", quota: 10 * time.Second, truth: 5000},
	}
}

func buildPaper(st *storage.Store, rng *rand.Rand) error {
	if _, err := gen.SelectRelation(st, "r", paperTuples, 1000, rng); err != nil {
		return err
	}
	if _, _, err := gen.IntersectPair(st, "i1", "i2", paperTuples, paperTuples, rng); err != nil {
		return err
	}
	if _, _, err := gen.JoinPair(st, "j1", "j2", paperTuples, 70000, rng); err != nil {
		return err
	}
	_, _, err := gen.IntersectPair(st, "d1", "d2", paperTuples, 5000, rng)
	return err
}

func buildScale(st *storage.Store, rng *rand.Rand) error {
	_, _, err := gen.JoinPair(st, "big1", "big2", scaleTuples, 350000, rng)
	return err
}

// workloads lists the four workloads; names are normative (they are the
// names in BENCHMARK.json).
var workloads = []*workload{
	{
		name:   "paper-mix",
		why:    "tiny paper-size queries: per-query and per-stage fixed cost (session, seeding, plan, draw) dominates, operators do little",
		shapes: paperShapes(false),
		build:  buildPaper,
		warmup: 8000,
		prefix: 24000,
		smokeN: 300,
		maxQPS: 10000,
	},
	{
		name: "join-scale",
		why:  "50,000-tuple join: per-block and per-tuple work (LoadStage, sort/merge, sub-term fan-out) dominates, fixed cost is ~2%",
		shapes: []shape{{
			name: "join", ra: "join(big1, big2, a = a)", quota: 200 * time.Second,
			initJoinSel: 0.001, truth: 350000,
		}},
		build:  buildScale,
		warmup: 400,
		prefix: 3000,
		smokeN: 60,
		maxQPS: 600,
	},
	{
		name:   "hard-deadline",
		why:    "paper-mix's queries with HardDeadline armed: scalar row path with deadline polls, serial terms; measures the hard promise",
		hard:   true,
		shapes: paperShapes(false),
		build:  buildPaper,
		warmup: 8000,
		prefix: 24000,
		smokeN: 300,
		maxQPS: 10000,
	},
	{
		name:   "serve-stream",
		why:    "the same shapes over loopback HTTP with NDJSON streaming: wire, raparse, sched, server, client and observers do most of the work",
		wire:   true,
		shapes: paperShapes(true),
		build:  buildPaper,
		warmup: 8000,
		prefix: 20000,
		smokeN: 300,
		maxQPS: 7000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dataset is one opened DB with a workload's relations generated and
// its shapes parsed, ready to be queried.
type dataset struct {
	w       *workload
	seed    int64
	db      *tcq.DB
	queries []tcq.Query // public-surface form, one per shape
	exprs   []ra.Expr   // engine form, one per shape
}

// open builds the workload's data on a fresh DB configured as the
// experiment harness configures its machines (simulated clock, load
// noise 0.12, SUN profile) plus any extra options. The program under
// test sees only these generated inputs; seed drives all of them.
func (w *workload) open(seed int64, extra ...tcq.Option) (*dataset, error) {
	opts := append([]tcq.Option{tcq.WithSimulatedClock(seed), tcq.WithLoadNoise(loadSigma)}, extra...)
	db := tcq.Open(opts...)
	if err := w.build(db.Store(), rand.New(rand.NewSource(seed))); err != nil {
		return nil, fmt.Errorf("%s: generate relations: %w", w.name, err)
	}
	d := &dataset{w: w, seed: seed, db: db}
	for _, s := range w.shapes {
		q, err := tcq.Parse(s.ra)
		if err != nil {
			return nil, fmt.Errorf("%s: parse %q: %w", w.name, s.ra, err)
		}
		e, err := raparse.Parse(s.ra)
		if err != nil {
			return nil, fmt.Errorf("%s: parse %q: %w", w.name, s.ra, err)
		}
		d.queries = append(d.queries, q)
		d.exprs = append(d.exprs, e)
	}
	return d, nil
}

// serviceOptions are the extra DB options cmd/tcqd opens its DB with;
// the catalog stays unbuilt, so every lookup takes the miss path.
func serviceOptions() []tcq.Option {
	return []tcq.Option{tcq.WithTelemetry(64), tcq.WithCalibration(64), tcq.WithCatalog()}
}

// loadSigma and clockJitter are the simulated machine's noise settings
// (the experiment harness's values; jitter is tcq.WithSimulatedClock's).
const (
	loadSigma   = 0.12
	clockJitter = 0.03
)

// shapeOf returns query i's shape index.
func (w *workload) shapeOf(i int) int { return i % len(w.shapes) }

// options are query i's public estimate options.
func (d *dataset) options(i int) tcq.EstimateOptions {
	s := &d.w.shapes[d.w.shapeOf(i)]
	return tcq.EstimateOptions{
		Quota:                  s.quota,
		HardDeadline:           d.w.hard,
		InitialJoinSelectivity: s.initJoinSel,
		Seed:                   d.seed + int64(i),
	}
}

// outcome is what a caller learns from one query, on either surface.
type outcome struct {
	value, interval float64
	stages, blocks  int
	elapsed         time.Duration
	utilization     float64
	overspent       bool
}

// estimate runs query i through DB.CountEstimate.
func (d *dataset) estimate(i int) (outcome, error) {
	return d.estimateWith(i, d.options(i))
}

func (d *dataset) estimateWith(i int, opts tcq.EstimateOptions) (outcome, error) {
	est, err := d.db.CountEstimate(d.queries[d.w.shapeOf(i)], opts)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		value: est.Value, interval: est.Interval, stages: est.Stages, blocks: est.Blocks,
		elapsed: est.Elapsed, utilization: est.Utilization, overspent: est.Overspent,
	}, nil
}

// checkTruths verifies the generator's exact answers against a full
// scan through the public surface — the inputs are what the quality
// metrics assume they are.
func (d *dataset) checkTruths() error {
	for si, s := range d.w.shapes {
		n, err := d.db.Count(d.queries[si])
		if err != nil {
			return fmt.Errorf("%s/%s: exact count: %w", d.w.name, s.name, err)
		}
		if float64(n) != s.truth {
			return fmt.Errorf("%s/%s: generator truth %v but DB.Count = %d", d.w.name, s.name, s.truth, n)
		}
	}
	return nil
}
