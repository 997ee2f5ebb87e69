package exec

import (
	"fmt"
	"testing"

	"tcq/internal/ra"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// buildBoundaryStore creates relations r and s with exactly n tuples
// each, loaded either in bulk (AppendBatch) or row by row (Append) — two
// load APIs over the one columnar representation. s overlaps r on half
// its ids so joins and intersections produce output at every size.
func buildBoundaryStore(t *testing.T, n int, bulk bool) (*storage.Store, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim(3, 0.01)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	rows := func(base int) []tuple.Tuple {
		ts := make([]tuple.Tuple, 0, n)
		for i := 0; i < n; i++ {
			id := int64(base + i)
			ts = append(ts, tuple.Tuple{id, id % 7})
		}
		return ts
	}
	for _, rel := range []struct {
		name string
		base int
	}{{"r", 0}, {"s", n / 2}} {
		r, err := st.CreateRelation(rel.name, sch)
		if err != nil {
			t.Fatal(err)
		}
		ts := rows(rel.base)
		if bulk {
			b := tuple.NewBatch(sch)
			for _, tp := range ts {
				if err := b.AppendRow(tp); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		} else if err := r.AppendAll(ts); err != nil {
			t.Fatal(err)
		}
	}
	return st, clk
}

// boundaryFingerprint runs a census evaluation of e split over the
// given per-feed stage block lists and captures everything observable
// about the simulation: the estimate, the clock position (every jitter
// draw), poll and comparison counters, and the store counters.
func boundaryFingerprint(t *testing.T, st *storage.Store, clk *vclock.Sim, e ra.Expr, workers int, split func(nb int) [][]int) string {
	t.Helper()
	env := NewEnv(st)
	q, err := NewParallelQuery(e, env, StoreCatalog{st}, FullFulfillment, workers)
	if err != nil {
		t.Fatal(err)
	}
	nStages := 0
	for _, name := range q.FeedNames() {
		f := q.Feeds[name]
		stages := split(f.Rel.NumBlocks())
		nStages = len(stages)
		for _, blocks := range stages {
			if err := f.LoadStage(blocks); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < nStages; s++ {
		if err := q.AdvanceStage(s); err != nil {
			t.Fatal(err)
		}
	}
	est := q.Estimate()
	return fmt.Sprintf("est=%v var=%v clock=%d polls=%d comps=%d counters=%+v",
		est.Value, est.Variance, clk.Now(), env.DeadlinePolls, env.Comparisons, st.Counters())
}

// TestBatchBoundaryEquivalence pins the operators at the boundary sizes
// — empty relations (empty batches), a single tuple, exactly one block,
// one block plus one tuple, and several blocks with a remainder — by
// checking that evaluation over AppendBatch-loaded relations reproduces
// evaluation over Append-loaded ones bit-for-bit (estimate, clock,
// polls, comparisons, I/O counters) for select, project, join and
// intersect, serially and with a worker pool, including a split whose
// second stage is empty.
func TestBatchBoundaryEquivalence(t *testing.T) {
	probe, _ := buildBoundaryStore(t, 1, true)
	rel, err := probe.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	bf := rel.BlockingFactor()

	exprs := map[string]ra.Expr{
		"select": &ra.Select{Input: &ra.Base{Name: "r"},
			Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(4)}}},
		"project": &ra.Project{Input: &ra.Base{Name: "r"}, Cols: []string{"a"}},
		"join": &ra.Join{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"},
			On: []ra.JoinCond{{LeftCol: "id", RightCol: "id"}}},
		"intersect": &ra.Intersect{Inputs: []ra.Expr{&ra.Base{Name: "r"}, &ra.Base{Name: "s"}}},
	}
	splits := map[string]func(nb int) [][]int{
		"one-stage": func(nb int) [][]int {
			all := make([]int, nb)
			for i := range all {
				all[i] = i
			}
			return [][]int{all}
		},
		"half-and-empty": func(nb int) [][]int {
			all := make([]int, nb)
			for i := range all {
				all[i] = i
			}
			return [][]int{all, {}} // second stage is an empty batch
		},
		"two-stage": func(nb int) [][]int {
			all := make([]int, nb)
			for i := range all {
				all[i] = i
			}
			return [][]int{all[:nb/2], all[nb/2:]}
		},
	}

	for _, n := range []int{0, 1, bf, bf + 1, 3*bf + 2} {
		for ename, e := range exprs {
			for sname, split := range splits {
				for _, workers := range []int{1, 4} {
					rowSt, rowClk := buildBoundaryStore(t, n, false)
					want := boundaryFingerprint(t, rowSt, rowClk, e, workers, split)
					colSt, colClk := buildBoundaryStore(t, n, true)
					got := boundaryFingerprint(t, colSt, colClk, e, workers, split)
					if got != want {
						t.Errorf("n=%d %s %s workers=%d:\nAppend-loaded: %s\n  bulk-loaded: %s",
							n, ename, sname, workers, want, got)
					}
				}
			}
		}
	}
}
