package exec

import (
	"testing"
	"time"

	"tcq/internal/ra"
	"tcq/internal/vclock"
)

// armedStage loads the fixture's relation r (200 tuples, a = id % 20)
// as one stage, arms a deadline quota after the load, and advances the
// stage. It returns the clock time spent in the stage, the deadline
// polls made, the comparisons charged and the stage's error.
func armedStage(t *testing.T, e ra.Expr, quota time.Duration) (spent time.Duration, polls, comps int64, err error) {
	t.Helper()
	st, clk := fixture(t, 1) // jitter-free clock: a charge is its nominal cost
	q, env := mustQuery(t, st, e, FullFulfillment)
	loadAll(t, q)
	if quota > 0 {
		env.SetDeadline(vclock.NewDeadline(clk, quota))
	}
	start := clk.Now()
	err = q.AdvanceStage(0)
	return clk.Now() - start, env.DeadlinePolls, env.Comparisons, err
}

// TestHardDeadlineSelectProjectAbortPoint pins where select and project
// stop under an armed deadline. Both operators evaluate a stage as
// column operations, but their poll+charge accounting must abort at
// exactly the tuple — clock reading and poll count — at which the
// paper's tuple-at-a-time loops (Figs. 4.3, 4.7: poll, charge the
// tuple, next) would have noticed the interrupt. The expected abort
// points are computed here from those literal per-tuple sequences.
func TestHardDeadlineSelectProjectAbortPoint(t *testing.T) {
	costs, _ := fixture(t, 1)
	c := costs.Costs()
	const n = 200

	t.Run("select", func(t *testing.T) {
		e := &ra.Select{Input: &ra.Base{Name: "r"},
			Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(5)}}}
		for _, k := range []int{0, 1, 63, 64, 199} {
			// Scan loop: tuple i is polled at OpInit + i·check. With the
			// deadline at OpInit + k·check the first expired poll is i = k+1,
			// after k+1 tuples were charged.
			quota := c.OpInit + time.Duration(k)*c.TupleCheck
			spent, polls, _, err := armedStage(t, e, quota)
			if k == n-1 {
				// The last tuple is charged before any poll can see it expired;
				// the next poll belongs to the output loop's first write.
				if want := c.OpInit + n*c.TupleCheck; !IsAborted(err) || spent != want || polls != n+1 {
					t.Errorf("k=%d: spent %v polls %d err %v, want abort at %v after %d polls", k, spent, polls, err, want, n+1)
				}
				continue
			}
			want := c.OpInit + time.Duration(k+1)*c.TupleCheck
			if !IsAborted(err) || spent != want || polls != int64(k+2) {
				t.Errorf("k=%d: spent %v polls %d err %v, want abort at %v after %d polls", k, spent, polls, err, want, k+2)
			}
		}
	})

	t.Run("project", func(t *testing.T) {
		e := &ra.Project{Input: &ra.Base{Name: "r"}, Cols: []string{"a"}}
		total, totalPolls, comps, err := armedStage(t, e, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Write loop (step 1): tuple i is polled at OpInit + i·write (the
		// projected tuples are 8 bytes, 128 to a page: no page write
		// before tuple 128).
		for _, k := range []int{0, 5, 100} {
			quota := c.OpInit + time.Duration(k)*c.TupleWrite
			spent, polls, _, err := armedStage(t, e, quota)
			want := c.OpInit + time.Duration(k+1)*c.TupleWrite
			if !IsAborted(err) || spent != want || polls != int64(k+2) {
				t.Errorf("write k=%d: spent %v polls %d err %v, want abort at %v after %d polls", k, spent, polls, err, want, k+2)
			}
		}

		// Scan loop (step 3) over the sorted run: 20 distinct values, 10
		// tuples each; per tuple poll, charge a check, and the first of a
		// never-seen group is also written out.
		scanStart := c.OpInit + n*c.TupleWrite + 2*c.PageWrite + time.Duration(comps)*c.TupleCompare
		pollsBefore := int64(n) + 1 + (comps+63)/64
		for _, k := range []int{0, 1, 10, 57, 199, 220} {
			quota := scanStart + time.Duration(k)*c.TupleCheck
			wantSpent, wantPolls, aborts := scanStart, pollsBefore, false
			for i := 0; i < n; i++ {
				wantPolls++
				if wantSpent > quota {
					aborts = true
					break
				}
				wantSpent += c.TupleCheck
				if i%10 == 0 {
					wantSpent += c.TupleWrite
				}
			}
			spent, polls, _, err := armedStage(t, e, quota)
			if !aborts {
				// The deadline fell past the last poll: the stage completes.
				if err != nil || spent != total || polls != totalPolls {
					t.Errorf("scan k=%d: spent %v polls %d err %v, want completion at %v after %d polls", k, spent, polls, err, total, totalPolls)
				}
				continue
			}
			if !IsAborted(err) || spent != wantSpent || polls != wantPolls {
				t.Errorf("scan k=%d: spent %v polls %d err %v, want abort at %v after %d polls", k, spent, polls, err, wantSpent, wantPolls)
			}
		}
	})
}
