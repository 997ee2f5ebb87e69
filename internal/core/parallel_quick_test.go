package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tcq/internal/ra"
	"tcq/internal/storage"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// exprCase is a quick.Generator: one random RA expression over the
// fixture relations plus a sampler seed. Set operations stay within
// the schema-compatible r1/r2 family (so union/diff/intersect are
// well-typed and decompose into multiple signed terms — the case that
// actually exercises parallel term evaluation); joins draw from the
// j1/j2 pair, optionally with selections pushed onto either input.
type exprCase struct {
	Expr ra.Expr
	Seed int64
}

func (exprCase) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(exprCase{Expr: genTopExpr(r), Seed: 1 + r.Int63n(1<<30)})
}

func genTopExpr(r *rand.Rand) ra.Expr {
	switch r.Intn(4) {
	case 0:
		return &ra.Project{Input: genSetExpr(r, 2), Cols: []string{"a"}}
	case 1:
		return &ra.Join{Left: genJoinSide(r, "j1"), Right: genJoinSide(r, "j2"),
			On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
	default:
		return genSetExpr(r, 2)
	}
}

// genSetExpr produces schema-preserving expressions over r1/r2.
func genSetExpr(r *rand.Rand, depth int) ra.Expr {
	base := func() ra.Expr {
		name := "r1"
		if r.Intn(2) == 0 {
			name = "r2"
		}
		return &ra.Base{Name: name}
	}
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return base()
		}
		return &ra.Select{Input: base(), Pred: genPred(r)}
	}
	l, rr := genSetExpr(r, depth-1), genSetExpr(r, depth-1)
	switch r.Intn(4) {
	case 0:
		return &ra.Union{Left: l, Right: rr}
	case 1:
		return &ra.Difference{Left: l, Right: rr}
	case 2:
		return &ra.Intersect{Inputs: []ra.Expr{l, rr}}
	default:
		return &ra.Select{Input: l, Pred: genPred(r)}
	}
}

func genJoinSide(r *rand.Rand, name string) ra.Expr {
	if r.Intn(2) == 0 {
		return &ra.Base{Name: name}
	}
	return &ra.Select{Input: &ra.Base{Name: name}, Pred: genPred(r)}
}

func genPred(r *rand.Rand) ra.Pred {
	c := &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt,
		Right: ra.Const{Value: int64(100 + r.Intn(2400))}}
	if r.Intn(3) == 0 {
		return &ra.And{L: c, R: &ra.Cmp{Left: ra.Col{Name: "id"},
			Op: ra.Ge, Right: ra.Const{Value: int64(r.Intn(500))}}}
	}
	return c
}

// buildCaseStore builds the property tests' fixture store (fixed data
// seed, fixed sim-clock seed): the r1/r2 intersection family and the
// j1/j2 join pair, columnar as the workload generators produce them.
func buildCaseStore(t *testing.T) *storage.Store {
	t.Helper()
	clk := vclock.NewSim(7, 0.02)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	rng := rand.New(rand.NewSource(42))
	if _, _, err := workload.IntersectPair(st, "r1", "r2", 3000, 600, rng); err != nil {
		t.Fatal(err)
	}
	if _, _, err := workload.JoinPair(st, "j1", "j2", 2000, 8000, rng); err != nil {
		t.Fatal(err)
	}
	return st
}

// fingerprintOn evaluates one expression on st with the given worker
// count and mode and returns a full fingerprint of the observable
// outcome: estimate, stage count, overspend accounting, and the
// complete JSON-serialized stage trace.
func fingerprintOn(t *testing.T, st *storage.Store, c exprCase, workers int, mode Mode, quota time.Duration) string {
	t.Helper()
	col := trace.NewCollector()
	res, err := NewEngine(st).Count(c.Expr, Options{
		Quota:       quota,
		Mode:        mode,
		Seed:        c.Seed,
		Initial:     timectrl.Initials{Select: 1, Join: 0.1, Project: 1},
		Tracer:      col,
		Parallelism: workers,
	})
	if err != nil {
		return "error: " + err.Error()
	}
	tr, jerr := json.Marshal(col.Trace())
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Sprintf("estimate=%v variance=%v stages=%d blocks=%d elapsed=%d overspent=%v overspend=%d util=%v stop=%q trace=%s",
		res.Estimate.Value, res.Estimate.Variance, res.Stages, res.Blocks,
		res.Elapsed, res.Overspent, res.Overspend, res.Utilization, res.StopReason, tr)
}

// runCase is fingerprintOn over a freshly built fixture store in the
// paper's Overrun mode.
func runCase(t *testing.T, c exprCase, workers int) string {
	t.Helper()
	return fingerprintOn(t, buildCaseStore(t), c, workers, Overrun, 8*time.Second)
}

// TestParallelEquivalenceQuick is the determinism property: for random
// RA expressions, serial evaluation and parallel evaluation with 2 and
// 8 workers produce identical estimates, stage counts, and stage
// traces. This pins the lane record/replay contract — parallelism must
// be unobservable in results.
func TestParallelEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test builds a fresh store per run")
	}
	property := func(c exprCase) bool {
		serial := runCase(t, c, 1)
		for _, workers := range []int{2, 8} {
			if got := runCase(t, c, workers); got != serial {
				t.Logf("expr %s seed %d workers %d:\n serial: %s\nworkers: %s",
					c.Expr, c.Seed, workers, serial, got)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(99)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEquivalenceAboveFloor covers what the quick property's
// 8-second quotas no longer reach: the term tier only spawns goroutines
// for stages that load at least exec's subParMin (512) tuples from some
// relation, and paper-sized stages stay well below that. A generous
// quota on multi-term expressions drives stages over the floor, where
// the lanes really run concurrently; serial, 2 and 8 workers must still
// agree on every observable, stage trace included.
func TestParallelEquivalenceAboveFloor(t *testing.T) {
	const floor = 512 // exec.subParMin
	r1, r2 := &ra.Base{Name: "r1"}, &ra.Base{Name: "r2"}
	sel := &ra.Select{Input: r2, Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(1500)}}}
	for _, e := range []ra.Expr{
		&ra.Difference{Left: r1, Right: r2},
		&ra.Union{Left: r1, Right: sel},
	} {
		c := exprCase{Expr: e, Seed: 5}
		col := trace.NewCollector()
		if _, err := NewEngine(buildCaseStore(t)).Count(e, Options{
			Quota: 400 * time.Second, Seed: c.Seed, Tracer: col, Parallelism: 1,
			Initial: timectrl.Initials{Select: 1, Join: 0.1, Project: 1},
		}); err != nil {
			t.Fatal(err)
		}
		above := 0
		for _, st := range col.Trace().Stages {
			for _, rel := range st.Relations {
				if rel.Tuples >= floor {
					above++
					break
				}
			}
		}
		if above == 0 {
			t.Fatalf("%s: no stage loaded %d tuples from a relation; raise the quota", e, floor)
		}
		serial := fingerprintOn(t, buildCaseStore(t), c, 1, Overrun, 400*time.Second)
		for _, workers := range []int{2, 8} {
			if got := fingerprintOn(t, buildCaseStore(t), c, workers, Overrun, 400*time.Second); got != serial {
				t.Errorf("%s workers %d diverged above the floor:\nserial: %s\n   got: %s", e, workers, serial, got)
			}
		}
	}
}
