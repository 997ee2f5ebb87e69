package tcq

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"tcq/internal/core"
)

// stressDB builds one instance of the stress fixture: a 2000-tuple
// orders relation in which exactly 500 tuples have amount < 500.
// Every call produces a byte-identical database (same data, same
// simulated-clock seed), so two instances replay each other's queries.
func stressDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithSimulatedClock(11), WithLoadNoise(0.1))
	rel, err := db.CreateRelation("orders", []Column{
		{Name: "id", Type: Int},
		{Name: "amount", Type: Int},
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := rel.Insert(i, (i*7919+3)%n); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestConcurrentMixedWorkloadMatchesSerialReplay is the DB-level
// concurrency contract: 16 goroutines share one DB and issue a mix of
// exact counts, quota-bounded estimates, and EXPLAIN ANALYZE runs.
// Under -race this exercises the locking discipline; functionally,
// every concurrent result must equal a serial replay of the same
// seeded query on an identical database, and the metrics registry's
// order-independent aggregates (counters, histograms) must sum to
// exactly the serial totals.
func TestConcurrentMixedWorkloadMatchesSerialReplay(t *testing.T) {
	const goroutines = 16
	const iters = 3

	q, err := Parse(`select(orders, amount < 500)`)
	if err != nil {
		t.Fatal(err)
	}
	// Per-slot options: unique sampler seeds, and a mix of serial,
	// auto, and 2-worker parallel evaluation (the choice must not be
	// observable in results).
	estOpts := func(g, i int) EstimateOptions {
		return EstimateOptions{
			Quota:       5 * time.Second,
			Seed:        int64(1000*g + i + 1),
			Parallelism: g%3 - 1,
		}
	}
	explainOpts := func(g int) EstimateOptions {
		return EstimateOptions{Quota: 5 * time.Second, Seed: int64(50_000 + g)}
	}

	// Serial replay on an identical database records the expected
	// outcome of every (goroutine, iteration) slot. Order does not
	// matter: each query's session is seeded only by (db seed, query
	// seed).
	serial := stressDB(t)
	wantEst := make(map[[2]int]Estimate)
	wantPlan := make(map[int]string)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iters; i++ {
			est, err := serial.CountEstimate(q, estOpts(g, i))
			if err != nil {
				t.Fatal(err)
			}
			wantEst[[2]int{g, i}] = *est
		}
		plan, err := serial.ExplainAnalyze(q, explainOpts(g))
		if err != nil {
			t.Fatal(err)
		}
		wantPlan[g] = plan
	}

	db := stressDB(t)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n, err := db.Count(q)
				if err != nil || n != 500 {
					fail("g%d i%d: exact count = %d, %v (want 500)", g, i, n, err)
					continue
				}
				est, err := db.CountEstimate(q, estOpts(g, i))
				if err != nil {
					fail("g%d i%d: estimate: %v", g, i, err)
					continue
				}
				if want := wantEst[[2]int{g, i}]; *est != want {
					fail("g%d i%d: concurrent estimate diverges from serial replay:\n got %+v\nwant %+v",
						g, i, *est, want)
				}
			}
			plan, err := db.ExplainAnalyze(q, explainOpts(g))
			if err != nil {
				fail("g%d: explain analyze: %v", g, err)
			} else if plan != wantPlan[g] {
				fail("g%d: concurrent EXPLAIN ANALYZE diverges from serial replay:\n got %s\nwant %s",
					g, plan, wantPlan[g])
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}

	// The registries must agree on every order-independent aggregate.
	// (Gauges are last-write-wins and legitimately depend on completion
	// order, so they are excluded.)
	got, want := db.Metrics(), serial.Metrics()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("metrics counters diverge:\n got %+v\nwant %+v", got.Counters, want.Counters)
	}
	if len(got.Histograms) != len(want.Histograms) {
		t.Errorf("metrics histograms diverge:\n got %+v\nwant %+v", got.Histograms, want.Histograms)
	}
	for name, w := range want.Histograms {
		g, ok := got.Histograms[name]
		// Sum (and hence Mean) accumulates floats in completion order,
		// so concurrent and serial totals may differ in the last ulp;
		// everything else must match exactly.
		const rel = 1e-12
		if !ok || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max ||
			!reflect.DeepEqual(g.Buckets, w.Buckets) ||
			math.Abs(g.Sum-w.Sum) > rel*math.Abs(w.Sum) ||
			math.Abs(g.Mean-w.Mean) > rel*math.Abs(w.Mean) {
			t.Errorf("histogram %q diverges:\n got %+v\nwant %+v", name, g, w)
		}
	}
	// Physical work merged from the per-query sessions must sum to the
	// serial totals too.
	if gc, wc := db.Store().Counters(), serial.Store().Counters(); gc != wc {
		t.Errorf("store counters diverge:\n got %+v\nwant %+v", gc, wc)
	}
}

// scratchDB is stressDB plus a second relation, so the mixed shapes
// below include two-relation merges and a two-term difference (term
// lanes, child arenas) next to the one-relation selection.
func scratchDB(t *testing.T) *DB {
	t.Helper()
	db := stressDB(t)
	rel, err := db.CreateRelation("archive", []Column{
		{Name: "id", Type: Int},
		{Name: "amount", Type: Int},
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 2 {
		if err := rel.Insert(i, (i*7919+3)%2000); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

var scratchShapes = []string{
	`select(orders, amount < 500)`,
	`intersect(orders, archive)`,
	`join(orders, archive, id = id)`,
	`diff(orders, archive)`,
}

// TestConcurrentSessionsShareScratchPool: 8 goroutines issue 200 mixed
// shapes each on one DB, every query taking its arena from — and
// returning it to — the DB's one pool, so arenas warmed by one shape are
// reused by another and by other goroutines. Each answer must equal its
// serial twin's on an identical DB; under -race this is also the check
// that no two queries ever hold the same arena.
func TestConcurrentSessionsShareScratchPool(t *testing.T) {
	const goroutines, iters = 8, 200
	queries := make([]Query, len(scratchShapes))
	for i, ra := range scratchShapes {
		q, err := Parse(ra)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	slot := func(g, i int) (Query, EstimateOptions) {
		return queries[(g+i)%len(queries)], EstimateOptions{
			Quota:        4 * time.Second,
			Seed:         int64(1000*g + i + 1),
			Parallelism:  1 + (g+i)%4,
			HardDeadline: i%5 == 0,
		}
	}
	serial := scratchDB(t)
	want := make([]Estimate, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iters; i++ {
			q, opts := slot(g, i)
			est, err := serial.CountEstimate(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[g*iters+i] = *est
		}
	}
	db := scratchDB(t)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q, opts := slot(g, i)
				est, err := db.CountEstimate(q, opts)
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if *est != want[g*iters+i] {
					t.Errorf("g%d i%d: concurrent estimate diverges from its serial twin:\n got %+v\nwant %+v", g, i, *est, want[g*iters+i])
				}
			}
		}(g)
	}
	wg.Wait()
	if gc, wc := db.Store().Counters(), serial.Store().Counters(); gc != wc {
		t.Errorf("store counters diverge:\n got %+v\nwant %+v", gc, wc)
	}
}

// TestResultsSurviveScratchRecycling: what a query hands back — the
// engine's Result with its stage records and group estimates, the
// public estimate and the collected trace — is copied out of scratch at
// the session boundary, so 1,000 further queries recycling (and, under
// TestMain's poison, overwriting) the same arena must not change it.
func TestResultsSurviveScratchRecycling(t *testing.T) {
	db := scratchDB(t)
	q, err := Parse(`diff(orders, archive)`)
	if err != nil {
		t.Fatal(err)
	}
	opts := EstimateOptions{Quota: 6 * time.Second, Seed: 42, CollectTrace: true, Parallelism: 2}
	res, est, err := db.run(q, core.AggCount, "", "amount", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageRecords) == 0 || len(res.Groups) == 0 || est.Trace == nil || len(est.Trace.Stages) == 0 {
		t.Fatalf("fixture too small: %d stage records, %d groups, trace %v", len(res.StageRecords), len(res.Groups), est.Trace)
	}
	snapshot := func() string {
		return fmt.Sprintf("%+v\n%+v\n%+v\n%+v\n%+v", *res, res.StageRecords, res.Groups, *est, *est.Trace)
	}
	before := snapshot()
	for i := 0; i < 1000; i++ {
		other, _ := Parse(scratchShapes[i%len(scratchShapes)])
		if _, err := db.CountEstimate(other, EstimateOptions{Quota: 4 * time.Second, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if after := snapshot(); after != before {
		t.Errorf("a kept result changed while its arena was recycled:\nbefore %s\nafter  %s", before, after)
	}
}
