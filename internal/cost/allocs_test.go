//go:build !race

package cost

import (
	"testing"

	"tcq/internal/exec"
	"tcq/internal/ra"
)

// TestPredictStageProbeZeroAllocs: the planner's binary search calls
// PredictStage once per probe (~12 per stage); a probe is arithmetic
// over the snapshot and must allocate nothing.
func TestPredictStageProbeZeroAllocs(t *testing.T) {
	// r − s: two terms that share base relation r, after one observed
	// stage — fitted coefficients and the seen-base scratch both in play.
	st, _ := fixtureStore(t)
	q, env, _ := runStage(t, st, &ra.Difference{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"}}, 0.3)
	var roots []*exec.NodeInfo
	for _, te := range q.Terms {
		roots = append(roots, exec.Snapshot(te.Root))
	}
	m := NewModel(DefaultCoefficients(st.Costs(), 64), true)
	m.Observe(env.TakeTimings())
	sel := trueSelFunc(roots)
	var sink Prediction
	if allocs := testing.AllocsPerRun(100, func() {
		sink = m.PredictStage(roots, 0.01, sel)
	}); allocs != 0 {
		t.Errorf("PredictStage probe allocates: %v allocs/op", allocs)
	}
	if sink.Duration <= 0 {
		t.Fatalf("probe predicted %v", sink.Duration)
	}
}
