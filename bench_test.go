// Benchmarks mapping one-to-one onto the paper's evaluation tables
// (Figures 5.1–5.3) and this repo's ablations, plus micro-benchmarks of
// the substrates. Each table benchmark runs independent experiment
// trials (one per iteration) and reports the paper's table columns as
// custom metrics; the full 200-trial tables are regenerated with
//
//	go run ./cmd/tcqbench          # all tables, paper protocol
//	go test -bench=Fig -benchtime=200x   # equivalent via the bench driver
package tcq_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tcq/internal/bench"
	"tcq/internal/estimator"
	"tcq/internal/ra"
	"tcq/internal/sampling"
	"tcq/internal/scratch"
	"tcq/internal/sortx"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// benchExperiment runs one trial per iteration of the experiment's
// variant with the given label and reports the paper's table columns.
func benchExperiment(b *testing.B, e bench.Experiment, label string) {
	b.Helper()
	var chosen *bench.Variant
	for i := range e.Variants {
		if e.Variants[i].Label == label {
			chosen = &e.Variants[i]
			break
		}
	}
	if chosen == nil {
		b.Fatalf("no variant %q in %s", label, e.ID)
	}
	e.Variants = []bench.Variant{*chosen}
	rows, err := e.Run(bench.RunOptions{Trials: b.N, BaseSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rows[0]
	b.ReportMetric(r.Stages, "stages")
	b.ReportMetric(r.RiskPct, "risk%")
	b.ReportMetric(r.Ovsp, "ovsp-s")
	b.ReportMetric(r.Utilization, "util%")
	b.ReportMetric(r.Blocks, "blocks")
	b.ReportMetric(r.RelErrPct, "relerr%")
}

// BenchmarkFig51Selection1000 is Fig. 5.1's 1,000-output-tuple table at
// the paper's middle risk setting (dβ=12); run tcqbench for the full
// dβ sweep.
func BenchmarkFig51Selection1000(b *testing.B) {
	benchExperiment(b, bench.Fig51Selection(1000), "dβ=12")
}

// BenchmarkFig51Selection5000 is Fig. 5.1's 5,000-output-tuple table.
func BenchmarkFig51Selection5000(b *testing.B) {
	benchExperiment(b, bench.Fig51Selection(5000), "dβ=12")
}

// BenchmarkFig52Intersection is Fig. 5.2 (intersection, 10,000 output
// tuples, 10 s quota).
func BenchmarkFig52Intersection(b *testing.B) {
	benchExperiment(b, bench.Fig52Intersection(), "dβ=12")
}

// BenchmarkFig53Join is Fig. 5.3 (join, 70,000 output tuples, 2.5 s
// quota, initial join selectivity 0.1).
func BenchmarkFig53Join(b *testing.B) {
	benchExperiment(b, bench.Fig53Join(), "dβ=12")
}

// BenchmarkAblationStrategies compares the §3.3 strategies (heuristic
// row shown; tcqbench prints all five).
func BenchmarkAblationStrategies(b *testing.B) {
	benchExperiment(b, bench.AblationStrategies(), "heuristic γ=0.5")
}

// BenchmarkAblationFulfillment compares full vs partial fulfillment
// (partial row shown).
func BenchmarkAblationFulfillment(b *testing.B) {
	benchExperiment(b, bench.AblationFulfillment(), "partial fulfillment")
}

// BenchmarkAblationAdaptiveCost compares adaptive vs fixed-form cost
// formulas (adaptive row shown).
func BenchmarkAblationAdaptiveCost(b *testing.B) {
	benchExperiment(b, bench.AblationAdaptiveCost(), "adaptive")
}

// BenchmarkEstimatorQuality is the est.quality sweep at a 10% sample.
func BenchmarkEstimatorQuality(b *testing.B) {
	rows, err := bench.EstimatorQuality(bench.RunOptions{Trials: b.N, BaseSeed: 1}, []float64{0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanRelErr, r.Op+"-relerr%")
	}
}

// TestRegenerateAllTables prints every experiment table at a reduced
// trial count as a smoke check of the harness end to end; the paper
// protocol (200 trials) runs via cmd/tcqbench.
func TestRegenerateAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration skipped in -short mode")
	}
	for _, e := range bench.AllExperiments() {
		rows, err := e.Run(bench.RunOptions{Trials: 25, BaseSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		t.Logf("\n%s", bench.Render(e.Title, rows))
		for _, r := range rows {
			if r.Utilization < 0 || r.Utilization > 100 {
				t.Errorf("%s/%s: utilization %.1f out of range", e.ID, r.Label, r.Utilization)
			}
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------

func benchTuples(n int, rng *rand.Rand) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{rng.Int63n(1 << 20), rng.Int63n(1000)}
	}
	return out
}

// BenchmarkExternalSort measures the run-generation + k-way-merge sort
// on the normalized keys of 10k two-column tuples.
func BenchmarkExternalSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 10000)
	for i, t := range benchTuples(len(keys), rng) {
		keys[i] = tuple.AppendNormKey(nil, t, []int{0}, nil)
	}
	mem := new(scratch.Arena)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortx.SortKeyedIdx(mem, keys, 512)
		mem.Reset()
	}
}

// BenchmarkBlockSampler measures drawing 200 of 2,000 blocks without
// replacement (one experiment stage's sampling work).
func BenchmarkBlockSampler(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		s := sampling.NewBlockSampler(2000, rng)
		s.Draw(200)
	}
}

// BenchmarkGoodman measures the distinct-count estimator on a 50-class
// occupancy profile.
func BenchmarkGoodman(b *testing.B) {
	freq := map[int]int{1: 20, 2: 15, 3: 10, 4: 5}
	for i := 0; i < b.N; i++ {
		estimator.Goodman(100000, 60000, freq)
	}
}

// BenchmarkInclusionExclusion measures the COUNT(E) decomposition of a
// nested union/difference expression.
func BenchmarkInclusionExclusion(b *testing.B) {
	m := ra.NewMapRelations()
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "v", Type: tuple.Int},
	)
	for _, n := range []string{"a", "b", "c"} {
		m.Add(n, sch, nil)
	}
	e := &ra.Union{
		Left: &ra.Difference{Left: &ra.Base{Name: "a"}, Right: &ra.Base{Name: "b"}},
		Right: &ra.Intersect{Inputs: []ra.Expr{
			&ra.Base{Name: "b"},
			&ra.Union{Left: &ra.Base{Name: "a"}, Right: &ra.Base{Name: "c"}},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ra.Terms(e, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSelectTrial measures one full time-constrained
// selection query (10,000 tuples, 10 s virtual quota) end to end.
func BenchmarkEngineSelectTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.Fig51Selection(1000)
		e.Variants = e.Variants[1:2] // dβ=12
		if _, err := e.Run(bench.RunOptions{Trials: 1, BaseSeed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageScan measures a charged scan of a 2,000-block
// relation on the simulated store.
func BenchmarkStorageScan(b *testing.B) {
	clk := vclock.NewSim(1, 0)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	rng := rand.New(rand.NewSource(1))
	rel, err := workload.SelectRelation(st, "r", workload.PaperTuples, 1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := rel.Scan(vclock.Unarmed(), func(tuple.Tuple) error {
			n++
			return nil
		})
		if err != nil || n != workload.PaperTuples {
			b.Fatalf("scan: n=%d err=%v", n, err)
		}
	}
}

// ExampleRender shows the harness table format (doc example).
func ExampleRender() {
	rows := []bench.Row{{
		Label: "dβ=12", Trials: 200, Stages: 2.1, RiskPct: 42.5,
		Ovsp: 0.57, Utilization: 79.7, Blocks: 96.8, RelErrPct: 12.5,
	}}
	fmt.Print(bench.Render("Fig 5.1 — selection (demo row)", rows))
	// Output:
	// Fig 5.1 — selection (demo row)
	// variant                 trials  stages   risk% ovsp(s)   util%  blocks  relerr%
	// dβ=12                      200    2.10    42.5    0.57    79.7    96.8     12.5
}
