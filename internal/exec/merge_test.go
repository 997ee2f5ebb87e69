package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tcq/internal/ra"
	"tcq/internal/sortx"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// ---------------------------------------------------------------------------
// The per-pair oracle
//
// oracleMerge is the literal plan of the paper's Fig. 4.5, one tuple at
// a time: per stage it sorts each side's new sample into a run, then
// merge-joins the new left run against every right run and every older
// left run against the new right run — 2s+1 two-run merge-joins over
// row tuples compared with tuple.Compare — charging each pair's
// comparisons as it goes. It is what the production mergeNode
// (cumulative runs, cached byte keys, index-pair emission, group-summary
// charges) must reproduce row for row and charge for charge.
type oracleMerge struct {
	env          *Env
	op           OpKind
	plan         Plan
	ls, rs       *tuple.Schema
	lcols, rcols []int
	lruns, rruns [][]tuple.Tuple
	out          storage.TempFile
	lcum, rcum   int64
	stats        Stats
}

func newOracleMerge(env *Env, op OpKind, plan Plan, ls, rs *tuple.Schema, lcols, rcols []int) *oracleMerge {
	outSchema := ls
	if op == OpJoin {
		var err error
		if outSchema, err = ls.Concat(rs, "l", "r"); err != nil {
			panic(err)
		}
	}
	return &oracleMerge{env: env, op: op, plan: plan, ls: ls, rs: rs, lcols: lcols, rcols: rcols,
		out: env.NewScratchFile(outSchema)}
}

func (o *oracleMerge) emit(l, r tuple.Tuple) tuple.Tuple {
	if o.op == OpJoin {
		return l.Concat(r)
	}
	return l
}

// sortRun orders ts on cols exactly as the executors' external sort
// does (same run size, same comparator-call sequence): an argsort of
// the tuples' normalized keys. The merge below never looks at the keys
// again — it compares tuples — so a key order that disagreed with
// tuple.Compare would surface as a wrong join.
func (o *oracleMerge) sortRun(ts []tuple.Tuple, cols []int) ([]tuple.Tuple, int64) {
	widen := tuple.JoinWiden(o.ls, o.lcols, o.rs, o.rcols)
	keys := make([][]byte, len(ts))
	for i, t := range ts {
		keys[i] = tuple.AppendNormKey(nil, t, cols, widen)
	}
	res := sortx.SortKeyedIdx(o.env.mem, keys, 0)
	sorted := make([]tuple.Tuple, len(ts))
	for i, j := range res.Perm {
		sorted[i] = ts[j]
	}
	return sorted, res.Comparisons
}

// mergeJoin merges two key-sorted runs, emitting o.emit(l, r) for each
// key-equal pair (group-wise cross product for duplicate keys). It
// returns the matches and the number of comparisons performed.
func (o *oracleMerge) mergeJoin(l, r []tuple.Tuple) ([]tuple.Tuple, int64, error) {
	var out []tuple.Tuple
	var comps int64
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		if (i+j)%16 == 0 {
			if err := o.env.checkDeadline(); err != nil {
				return nil, comps, err
			}
		}
		comps++
		c := tuple.Compare(l[i], r[j], o.lcols, o.rcols)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i2 := i + 1
			for i2 < len(l) && tuple.Compare(l[i2], l[i], o.lcols, o.lcols) == 0 {
				comps++
				i2++
			}
			j2 := j + 1
			for j2 < len(r) && tuple.Compare(r[j2], r[j], o.rcols, o.rcols) == 0 {
				comps++
				j2++
			}
			emitted := 0
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if emitted%mergePollInterval == 0 {
						if err := o.env.checkDeadline(); err != nil {
							return nil, comps, err
						}
					}
					emitted++
					out = append(out, o.emit(l[a], r[b]))
				}
			}
			i, j = i2, j2
		}
	}
	return out, comps, nil
}

// advance evaluates one stage: write, sort, the per-pair merges, output
// — the same steps, charges and step timings as mergeNode.Advance.
func (o *oracleMerge) advance(newL, newR []tuple.Tuple) ([]tuple.Tuple, error) {
	env := o.env
	env.chargeInit(0, o.op)
	clock := env.Clock()
	costs := env.Store.Costs()

	t0 := clock.Now()
	lTemp := env.NewScratchFile(o.ls)
	if err := env.writeRun(&lTemp, len(newL)); err != nil {
		return nil, err
	}
	lTemp.Flush()
	rTemp := env.NewScratchFile(o.rs)
	if err := env.writeRun(&rTemp, len(newR)); err != nil {
		return nil, err
	}
	rTemp.Flush()
	env.record(0, o.op, StepWrite, float64(len(newL)+len(newR)), clock.Now()-t0)
	if err := env.checkDeadline(); err != nil {
		return nil, err
	}

	t0 = clock.Now()
	lRun, lc := o.sortRun(newL, o.lcols)
	rRun, rc := o.sortRun(newR, o.rcols)
	if err := env.chargeChunked(lc+rc, costs.TupleCompare); err != nil {
		return nil, err
	}
	env.record(0, o.op, StepSort, nLogN(len(newL))+nLogN(len(newR)), clock.Now()-t0)

	t0 = clock.Now()
	o.lruns = append(o.lruns, lRun)
	o.rruns = append(o.rruns, rRun)
	var out []tuple.Tuple
	var mergeUnits float64
	mergePair := func(l, r []tuple.Tuple) error {
		matched, comps, err := o.mergeJoin(l, r)
		if err != nil {
			return err
		}
		if err := env.chargeChunked(comps, costs.TupleCompare); err != nil {
			return err
		}
		mergeUnits += float64(len(l) + len(r))
		out = append(out, matched...)
		return nil
	}
	s := len(o.lruns) - 1
	if o.plan == FullFulfillment {
		// New-left × every right run, then old-left runs × new-right.
		for i := 0; i <= s; i++ {
			if err := mergePair(o.lruns[s], o.rruns[i]); err != nil {
				return nil, err
			}
		}
		for i := 0; i < s; i++ {
			if err := mergePair(o.lruns[i], o.rruns[s]); err != nil {
				return nil, err
			}
		}
	} else if err := mergePair(o.lruns[s], o.rruns[s]); err != nil {
		return nil, err
	}
	env.record(0, o.op, StepMerge, mergeUnits, clock.Now()-t0)

	t0 = clock.Now()
	if err := env.writeRun(&o.out, len(out)); err != nil {
		return nil, err
	}
	o.out.Flush()
	env.record(0, o.op, StepOutput, float64(len(out)), clock.Now()-t0)

	if o.plan == FullFulfillment {
		o.stats.CumPoints += float64(o.lcum+int64(len(newL)))*float64(o.rcum+int64(len(newR))) -
			float64(o.lcum)*float64(o.rcum)
	} else {
		o.stats.CumPoints += float64(len(newL)) * float64(len(newR))
	}
	o.lcum += int64(len(newL))
	o.rcum += int64(len(newR))
	o.stats.CumOut += float64(len(out))
	return out, nil
}

// ---------------------------------------------------------------------------

// tickClock advances by step on every Now() call, so a deadline armed
// on it expires after a bounded number of polls regardless of charges.
// It stands in for the paper's timer interrupt firing while an executor
// is between charge points.
type tickClock struct {
	t    time.Duration
	step time.Duration
}

func (c *tickClock) Now() time.Duration     { c.t += c.step; return c.t }
func (c *tickClock) Charge(d time.Duration) { c.t += d }

// deadlineEnv builds an Env on a tickClock with a deadline that expires
// after roughly polls deadline checks.
func deadlineEnv(polls int) (*Env, *tickClock) {
	clk := &tickClock{step: time.Millisecond}
	st := storage.NewStore(clk, storage.FastProfile(), storage.DefaultBlockSize)
	env := NewEnv(st)
	env.SetDeadline(vclock.NewDeadline(clk, time.Duration(polls)*time.Millisecond))
	return env, clk
}

// batchOf columnises rows.
func batchOf(sch *tuple.Schema, rows []tuple.Tuple) *tuple.Batch {
	b := tuple.NewBatch(sch)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			panic(err)
		}
	}
	return b
}

// singleKeyNode builds a bare intersect-style merge node on column 0 and
// a 100-row run in which every row shares one key.
func singleKeyNode(env *Env) (*mergeNode, *tuple.Schema, []tuple.Tuple) {
	sch := tuple.MustSchema(tuple.Column{Name: "a", Type: tuple.Int})
	n := &mergeNode{op: OpIntersect, lcols: []int{0}, rcols: []int{0}, schema: sch, env: env}
	run := make([]tuple.Tuple, 100)
	for i := range run {
		run[i] = tuple.Tuple{int64(7)}
	}
	return n, sch, run
}

// TestMergeJoinDeadlineAbortsEmitLoop is the regression test for the
// unbounded equal-key cross-product emit loop: with every tuple sharing
// one key, the pre-fix merge join polled the deadline only on entry
// ((i+j)%16 with i=j=0) and then emitted all |l|·|r| matches without
// ever noticing an expired deadline. The fixed loops poll at block
// granularity and must abort mid-emission — the production same-stage
// join ("keyed") and the per-pair oracle ("legacy") alike.
func TestMergeJoinDeadlineAbortsEmitLoop(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		env, _ := deadlineEnv(5)
		_, sch, run := singleKeyNode(env)
		o := newOracleMerge(env, OpIntersect, PartialFulfillment, sch, sch, []int{0}, []int{0})
		_, _, err := o.mergeJoin(run, run)
		if !IsAborted(err) {
			t.Fatalf("oracle mergeJoin on a 100x100 single-key cross product: got err=%v, want deadline abort", err)
		}
	})
	t.Run("keyed", func(t *testing.T) {
		env, _ := deadlineEnv(5)
		n, sch, run := singleKeyNode(env)
		sr, _ := sortRun(env.mem, batchOf(sch, run), []int{0}, nil)
		_, _, err := n.advanceSameStage(sr, sr)
		if !IsAborted(err) {
			t.Fatalf("advanceSameStage on a 100x100 single-key cross product: got err=%v, want deadline abort", err)
		}
	})
	// Sanity: with a generous deadline the same join completes in full.
	t.Run("completes", func(t *testing.T) {
		env, _ := deadlineEnv(1 << 20)
		n, sch, run := singleKeyNode(env)
		sr, _ := sortRun(env.mem, batchOf(sch, run), []int{0}, nil)
		out, units, err := n.advanceSameStage(sr, sr)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 100*100 || units != 200 {
			t.Fatalf("got %d matches and %v merge units, want %d and 200", out.Len(), units, 100*100)
		}
		// 1 main-loop comparison + 99 extent comparisons per side.
		if want := int64(1 + 99 + 99); env.Comparisons != want {
			t.Fatalf("charged %d comparisons, want %d", env.Comparisons, want)
		}
	})
}

// awkwardKeys are the float keys on which key definitions used to
// diverge; keyValue draws from them now and then.
var awkwardKeys = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -0.5}

// keyValue returns the k-th key as the column type wants it; Float keys
// are salted with NaNs, signed zeros and infinities.
func keyValue(rng *rand.Rand, ct tuple.ColType, k int) tuple.Value {
	if ct == tuple.Int {
		return int64(k)
	}
	if rng.Intn(6) == 0 {
		return awkwardKeys[rng.Intn(len(awkwardKeys))]
	}
	return float64(k)
}

// randRun returns a run of (id, a) tuples sorted on a, with the
// requested key skew.
func randRun(rng *rand.Rand, ct tuple.ColType, size, maxKey int) []tuple.Tuple {
	ts := make([]tuple.Tuple, size)
	for i := range ts {
		ts[i] = tuple.Tuple{int64(rng.Intn(1 << 16)), keyValue(rng, ct, rng.Intn(maxKey))}
	}
	cols := []int{1}
	sort.SliceStable(ts, func(a, b int) bool { return tuple.Compare(ts[a], ts[b], cols, cols) < 0 })
	return ts
}

// TestPairCompsMatchesMergeJoin checks that the group-summary formula
// used to charge the simulated clock on the cumulative path reproduces
// the element-level comparison count of the oracle's merge join, across
// random run sizes and duplicate distributions (including empty runs
// and runs with a single heavy key), over Int keys, Float keys (NaN, ±0
// and infinities included) and an Int run against a Float run.
func TestPairCompsMatchesMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := [][2]tuple.ColType{{tuple.Int, tuple.Int}, {tuple.Float, tuple.Float}, {tuple.Int, tuple.Float}}
	for trial := 0; trial < 450; trial++ {
		lt, rt := types[trial%3][0], types[trial%3][1]
		maxKey := []int{1, 2, 5, 40, 1000}[rng.Intn(5)]
		l := randRun(rng, lt, rng.Intn(60), maxKey)
		r := randRun(rng, rt, rng.Intn(60), maxKey)
		ls := tuple.MustSchema(tuple.Column{Name: "id", Type: tuple.Int}, tuple.Column{Name: "a", Type: lt})
		rs := tuple.MustSchema(tuple.Column{Name: "id", Type: tuple.Int}, tuple.Column{Name: "a", Type: rt})

		clk := vclock.NewSim(1, 0)
		st := storage.NewStore(clk, storage.FastProfile(), storage.DefaultBlockSize)
		o := newOracleMerge(NewEnv(st), OpIntersect, FullFulfillment, ls, rs, []int{1}, []int{1})
		_, comps, err := o.mergeJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		widen := tuple.JoinWiden(ls, []int{1}, rs, []int{1})
		lr, _ := sortRun(o.env.mem, batchOf(ls, l), []int{1}, widen)
		rr, _ := sortRun(o.env.mem, batchOf(rs, r), []int{1}, widen)
		got := pairComps(groupsOf(o.env.rec, lr.keys, lr.pres), groupsOf(o.env.rec, rr.keys, rr.pres))
		if got != comps {
			t.Fatalf("trial %d (%v×%v |l|=%d |r|=%d maxKey=%d): pairComps=%d, mergeJoin comps=%d",
				trial, lt, rt, len(l), len(r), maxKey, got, comps)
		}
	}
}

// stubNode feeds a merge node a fixed per-stage batch sequence.
type stubNode struct {
	schema *tuple.Schema
	stages []*tuple.Batch
	out    int64
}

func (s *stubNode) ID() int               { return 0 }
func (s *stubNode) Op() OpKind            { return OpBase }
func (s *stubNode) Children() []Node      { return nil }
func (s *stubNode) Schema() *tuple.Schema { return s.schema }
func (s *stubNode) Stats() Stats          { return Stats{CumOut: float64(s.out)} }
func (s *stubNode) CumOutTuples() int64   { return s.out }
func (s *stubNode) Advance(stage int) (*tuple.Batch, error) {
	b := s.stages[stage]
	s.out += int64(b.Len())
	return b, nil
}

// mergeCase is one randomly generated multi-stage merge workload over
// (id, a) rows: key column a is Int or Float on each side (an Int side
// against a Float side for joins only — intersects need equal schemas).
type mergeCase struct {
	nStages int
	plan    Plan
	op      OpKind
	ls, rs  *tuple.Schema
	l, r    [][]tuple.Tuple
}

func genMergeCase(rng *rand.Rand) mergeCase {
	c := mergeCase{nStages: 1 + rng.Intn(5), plan: Plan(rng.Intn(2)), op: OpJoin}
	if rng.Intn(2) == 0 {
		c.op = OpIntersect
	}
	types := []tuple.ColType{tuple.Int, tuple.Float}
	lt := types[rng.Intn(2)]
	rt := lt
	if c.op == OpJoin && rng.Intn(3) == 0 {
		rt = types[rng.Intn(2)]
	}
	schema := func(ct tuple.ColType) *tuple.Schema {
		return tuple.MustSchema(tuple.Column{Name: "id", Type: tuple.Int}, tuple.Column{Name: "a", Type: ct})
	}
	c.ls, c.rs = schema(lt), schema(rt)
	maxKey := []int{1, 3, 12, 200}[rng.Intn(4)]
	gen := func(ct tuple.ColType) (stages [][]tuple.Tuple) {
		for s := 0; s < c.nStages; s++ {
			rows := make([]tuple.Tuple, rng.Intn(30)) // empty stages included
			for i := range rows {
				rows[i] = tuple.Tuple{int64(rng.Intn(50)), keyValue(rng, ct, rng.Intn(maxKey))}
			}
			stages = append(stages, rows)
		}
		return stages
	}
	c.l, c.r = gen(lt), gen(rt)
	return c
}

func mergeTestEnv() (*Env, *vclock.Sim) {
	clk := vclock.NewSim(11, 0)
	return NewEnv(storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)), clk
}

// sameRow reports value-for-value equality where NaN equals NaN and −0
// is told apart from +0: outputs must carry the input rows' own values.
func sameRow(a, b tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		if aok && bok {
			if math.Float64bits(fa) != math.Float64bits(fb) && !(fa != fa && fb != fb) {
				return false
			}
		} else if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCumulativeMatchesLegacyQuick is the equivalence property test for
// the production merge node against the per-pair oracle: over random
// stage counts, run sizes (empty runs included), duplicate
// distributions, operators, fulfillment plans and key types (Int,
// Float with NaN/±0/±Inf, Int=Float), the node must produce, stage by
// stage, (1) the same output rows in the same order, (2) the same
// simulated clock total, (3) the same recorded step units, and (4) the
// same point-space statistics as the literal Fig. 4.5 plan.
func TestCumulativeMatchesLegacyQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genMergeCase(rng)

		env, clk := mergeTestEnv()
		left, right := &stubNode{schema: c.ls}, &stubNode{schema: c.rs}
		for s := 0; s < c.nStages; s++ {
			left.stages = append(left.stages, batchOf(c.ls, c.l[s]))
			right.stages = append(right.stages, batchOf(c.rs, c.r[s]))
		}
		var node Node
		var err error
		lcols, rcols := []int{1}, []int{1}
		if c.op == OpJoin {
			node, err = newJoinNode(env, left, right, []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}, c.plan, nil)
		} else {
			node, err = newIntersectNode(env, left, right, c.plan, nil)
			lcols, rcols = []int{0, 1}, []int{0, 1}
		}
		if err != nil {
			t.Fatal(err)
		}
		refEnv, refClk := mergeTestEnv()
		ref := newOracleMerge(refEnv, c.op, c.plan, c.ls, c.rs, lcols, rcols)

		for s := 0; s < c.nStages; s++ {
			got, err := node.Advance(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.advance(c.l[s], c.r[s])
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(want) {
				t.Logf("seed %d stage %d (%v/%v): %d vs %d output tuples",
					seed, s, c.op, c.plan, got.Len(), len(want))
				return false
			}
			for i, row := range got.Rows() {
				if !sameRow(row, want[i]) {
					t.Logf("seed %d stage %d tuple %d: %v vs %v", seed, s, i, row, want[i])
					return false
				}
			}
			if clk.Now() != refClk.Now() {
				t.Logf("seed %d stage %d: clock %v vs %v", seed, s, clk.Now(), refClk.Now())
				return false
			}
		}
		if gs := node.Stats(); gs != ref.stats {
			t.Logf("seed %d: stats %+v vs %+v", seed, gs, ref.stats)
			return false
		}
		gt, rt := env.TakeTimings(), refEnv.TakeTimings()
		if len(gt) != len(rt) {
			t.Logf("seed %d: %d vs %d step timings", seed, len(gt), len(rt))
			return false
		}
		for i := range gt {
			if gt[i].Step != rt[i].Step || gt[i].Units != rt[i].Units {
				t.Logf("seed %d: step %d: (%v, %v) vs (%v, %v)",
					seed, i, gt[i].Step, gt[i].Units, rt[i].Step, rt[i].Units)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
