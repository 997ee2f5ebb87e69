package core

import (
	"strings"
	"testing"
	"time"

	"tcq/internal/ra"
)

// TestHardDeadlineParallelAccounting is the satellite regression for
// the parallelism gate: HardDeadline queries historically forced fully
// serial evaluation; they now keep terms serial (an abort's position
// depends on the global poll interleaving) while the sub-term tier may
// still fan out charge-free work. The abort point, overspend
// accounting, utilization and the full stage trace must be identical
// at 1, 4 and 8 workers — for a multi-term query, a single-term pure
// join, a single-term intersection, and select- and project-rooted
// terms (whose column-wise stage bodies run under the armed deadline
// too; the fingerprint's trace carries every stage's DeadlinePolls),
// across quotas that abort at different points of a stage.
func TestHardDeadlineParallelAccounting(t *testing.T) {
	exprs := []ra.Expr{
		// Multi-term: union decomposes into signed terms.
		&ra.Union{Left: &ra.Base{Name: "r1"}, Right: &ra.Base{Name: "r2"}},
		// Single-term pure join: the case the serial-only gate pinned.
		&ra.Join{Left: &ra.Base{Name: "j1"}, Right: &ra.Base{Name: "j2"},
			On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}},
		// Single-term intersection.
		&ra.Intersect{Inputs: []ra.Expr{&ra.Base{Name: "r1"}, &ra.Base{Name: "r2"}}},
		// Select-rooted, over a base relation and over a join's output.
		&ra.Select{Input: &ra.Base{Name: "r1"},
			Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(40)}}},
		&ra.Select{Input: &ra.Join{Left: &ra.Base{Name: "j1"}, Right: &ra.Base{Name: "j2"},
			On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}},
			Pred: &ra.Cmp{Left: ra.Col{Name: "l.id"}, Op: ra.Lt, Right: ra.Const{Value: int64(1000)}}},
		// Project-rooted (Goodman path), over a base relation and a selection.
		&ra.Project{Input: &ra.Base{Name: "r1"}, Cols: []string{"a"}},
		&ra.Project{Input: &ra.Select{Input: &ra.Base{Name: "j1"},
			Pred: &ra.Cmp{Left: ra.Col{Name: "id"}, Op: ra.Ge, Right: ra.Const{Value: int64(500)}}},
			Cols: []string{"a"}},
	}
	quotas := []time.Duration{
		120 * time.Millisecond, // expires during the first stage
		800 * time.Millisecond,
		3 * time.Second,
	}
	for _, e := range exprs {
		aborted := false
		for _, quota := range quotas {
			c := exprCase{Expr: e, Seed: 11}
			serial := fingerprintOn(t, buildCaseStore(t), c, 1, HardDeadline, quota)
			if strings.HasPrefix(serial, "error:") {
				t.Fatalf("%s quota %v: %s", e, quota, serial)
			}
			if strings.Contains(serial, "stage aborted") {
				aborted = true
			}
			for _, workers := range []int{4, 8} {
				got := fingerprintOn(t, buildCaseStore(t), c, workers, HardDeadline, quota)
				if got != serial {
					t.Errorf("%s quota %v workers %d diverged:\nserial: %s\n   got: %s",
						e, quota, workers, serial, got)
				}
			}
		}
		if !aborted {
			t.Errorf("%s: no quota aborted a stage; the deadline paths were not exercised — tighten the quotas", e)
		}
	}
}
