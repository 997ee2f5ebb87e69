//go:build !race

package tcq

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tcq/internal/workload"
)

// steadyShape is one benchmark query shape with its committed
// steady-state ceilings: allocations and bytes per DB.CountEstimate on
// a DB whose scratch pool is warm.
type steadyShape struct {
	name      string
	ra        string
	quota     time.Duration
	joinSel   float64
	maxAllocs float64
	maxBytes  uint64
}

// paperMixShapes are the four shapes of the benchmark's paper-mix
// workload over its relations (benchmark/workloads.go).
func paperMixShapes() []steadyShape {
	return []steadyShape{
		{name: "select", ra: "select(r, a < 1000)", quota: 10 * time.Second, maxAllocs: 45, maxBytes: 25 << 10},
		{name: "intersect", ra: "intersect(i1, i2)", quota: 10 * time.Second, maxAllocs: 70, maxBytes: 25 << 10},
		{name: "join", ra: "join(j1, j2, a = a)", quota: 2500 * time.Millisecond, joinSel: 0.1, maxAllocs: 85, maxBytes: 25 << 10},
		{name: "diff", ra: "diff(d1, d2)", quota: 10 * time.Second, maxAllocs: 85, maxBytes: 25 << 10},
	}
}

func paperMixDB(t testing.TB) *DB {
	t.Helper()
	db := Open(WithSimulatedClock(1), WithLoadNoise(0.12))
	st, rng := db.Store(), rand.New(rand.NewSource(1))
	n := workload.PaperTuples
	if _, err := workload.SelectRelation(st, "r", n, 1000, rng); err != nil {
		t.Fatal(err)
	}
	if _, _, err := workload.IntersectPair(st, "i1", "i2", n, n, rng); err != nil {
		t.Fatal(err)
	}
	if _, _, err := workload.JoinPair(st, "j1", "j2", n, 70000, rng); err != nil {
		t.Fatal(err)
	}
	if _, _, err := workload.IntersectPair(st, "d1", "d2", n, 5000, rng); err != nil {
		t.Fatal(err)
	}
	return db
}

func joinScaleDB(t testing.TB) *DB {
	t.Helper()
	db := Open(WithSimulatedClock(1), WithLoadNoise(0.12))
	if _, _, err := workload.JoinPair(db.Store(), "big1", "big2", 50000, 350000, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkSteadyState warms db with 50 queries of the shape, then holds
// the shape to its ceilings: testing.AllocsPerRun for the object count,
// runtime.MemStats.TotalAlloc for the bytes. Parallelism is pinned (not
// left to GOMAXPROCS, which AllocsPerRun sets to 1) so that multi-term
// shapes run on lanes as they do in the benchmark.
func checkSteadyState(t *testing.T, db *DB, s steadyShape) {
	t.Helper()
	q, err := Parse(s.ra)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	run := func() {
		seed++
		opts := EstimateOptions{Quota: s.quota, InitialJoinSelectivity: s.joinSel, Seed: seed, Parallelism: 4}
		if _, err := db.CountEstimate(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		run()
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s: %.1f allocs, %d B per query", s.name, allocs, bytes)
	if allocs > s.maxAllocs {
		t.Errorf("%s: %.1f allocs per query, ceiling %.0f", s.name, allocs, s.maxAllocs)
	}
	if bytes > s.maxBytes {
		t.Errorf("%s: %d B per query, ceiling %d", s.name, bytes, s.maxBytes)
	}
}

// TestSteadyStateAllocsPaperMix holds each paper-mix shape, repeated on
// one DB, to its ceiling: the stage loop takes its memory from the
// pooled per-query arena, so what is left is the public shell, the
// executor tree and the result.
func TestSteadyStateAllocsPaperMix(t *testing.T) {
	db := paperMixDB(t)
	for _, s := range paperMixShapes() {
		checkSteadyState(t, db, s)
	}
}

// TestSteadyStateAllocsJoinScale is the same guard on the benchmark's
// 50,000-tuple join, whose stages are two orders of magnitude larger.
func TestSteadyStateAllocsJoinScale(t *testing.T) {
	checkSteadyState(t, joinScaleDB(t), steadyShape{
		name: "join-scale", ra: "join(big1, big2, a = a)", quota: 200 * time.Second, joinSel: 0.001,
		maxAllocs: 100, maxBytes: 400 << 10,
	})
}
