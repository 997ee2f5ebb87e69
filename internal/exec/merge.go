package exec

// Incremental evaluation of the full-fulfillment merge plan.
//
// The paper's Fig. 4.5 plan combines stage s's new runs with every
// previous stage's runs: 2s+1 independent two-run merge-joins. Executed
// literally, the host-side work per stage grows linearly in s (and
// quadratically over a query), even though the *logical* result is just
// "new left × all right so far, plus all previous left × new right".
//
// This file evaluates the same plan with two physical merge-joins per
// stage against cumulative sorted runs:
//
//	newL × (cumR ∪ newR)    and    cumL × newR
//
// where cumL/cumR are each side's samples from all previous stages kept
// merged in one sorted sequence. Per-stage runs are immutable once
// sorted; the cumulative sequence is a slice of packed (stage, index)
// references into them — pointer-free, so folding a new stage in is a
// write-barrier-free merge of int64s rather than a rewrite of row and
// key slices. A match is emitted as a (left row, right row) index pair
// into the bucket of the cumulative element's stage; the buckets are
// gathered into the output batch in the Fig. 4.5 pair order, so the
// output is identical — row for row — to the per-pair plan's output
// (merge_test.go keeps the literal per-pair plan as the oracle).
// Comparisons compare cached normalized byte keys (internal/tuple).
//
// The simulated cost model is charged exactly as the per-pair plan
// charges it: per logical pair (in Fig. 4.5 order) the executor charges
// the number of comparisons the per-pair merge-join would have
// performed, computed in O(distinct keys) from per-run group summaries,
// with the same deadline-poll points. Merge step units remain
// Σ(len(l)+len(r)) over logical pairs (eq. 4.4). Only host CPU time and
// allocations change.

import (
	"bytes"

	"tcq/internal/scratch"
	"tcq/internal/sortx"
	"tcq/internal/tuple"
)

// mergePollInterval is the emit/walk granularity of hard-deadline polls
// inside merge loops. Polls read the clock without charging it, so the
// interval trades interrupt latency against host overhead only.
const mergePollInterval = 1024

// sortedRun is one stage's new sample in key order: rank i of the run is
// row perm[i] of b, keys[i] its normalized key and pres[i] the key's
// 8-byte abbreviation (sortx.IdxResult.Pres: unequal abbreviations
// decide a comparison, equal ones fall back to the full keys). The
// batch itself is never reordered. groups is set by mergeSide.addRun.
type sortedRun struct {
	b      *tuple.Batch
	perm   []int32
	keys   [][]byte
	pres   []uint64
	groups []keyGroup
}

func (r *sortedRun) len() int { return len(r.keys) }

// cmpKeys compares two normalized keys through their abbreviations.
func cmpKeys(pa uint64, ka []byte, pb uint64, kb []byte) int {
	if pa != pb {
		if pa < pb {
			return -1
		}
		return 1
	}
	return bytes.Compare(ka, kb)
}

// eqKeys reports key equality through the abbreviations.
func eqKeys(pa uint64, ka []byte, pb uint64, kb []byte) bool {
	return pa == pb && bytes.Equal(ka, kb)
}

// keyGroup summarises one equal-key group of a sorted run.
type keyGroup struct {
	key []byte
	pre uint64
	cnt int
}

// groupsOf builds the group summary of a key-sorted run, sized exactly
// (count pass, then fill).
func groupsOf(rec *slabs, keys [][]byte, pres []uint64) []keyGroup {
	if len(keys) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(keys); i++ {
		if !eqKeys(pres[i], keys[i], pres[i-1], keys[i-1]) {
			n++
		}
	}
	gs := rec.groups.Alloc(n)[:0]
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && eqKeys(pres[j], keys[j], pres[i], keys[i]) {
			j++
		}
		gs = append(gs, keyGroup{key: keys[i], pre: pres[i], cnt: j - i})
		i = j
	}
	return gs
}

// pairComps returns the number of comparisons a per-pair merge-join
// (the partial plan's advanceSameStage, the test oracle) performs on two
// key-sorted runs with the given group summaries. The count mirrors the
// element-level walk exactly: a group that sorts below the other side's
// current key costs one comparison per element (each element advances
// through the main loop singly); an equal-key pair of groups costs one
// main-loop comparison plus cnt−1 successful extent comparisons per
// side (the failing boundary comparison of the extent scan is executed
// but never counted); the loop stops when either run is exhausted,
// leaving the tail uncompared.
func pairComps(gl, gr []keyGroup) int64 {
	var comps int64
	i, j := 0, 0
	for i < len(gl) && j < len(gr) {
		switch c := cmpKeys(gl[i].pre, gl[i].key, gr[j].pre, gr[j].key); {
		case c < 0:
			comps += int64(gl[i].cnt)
			i++
		case c > 0:
			comps += int64(gr[j].cnt)
			j++
		default:
			comps += 1 + int64(gl[i].cnt-1) + int64(gr[j].cnt-1)
			i++
			j++
		}
	}
	return comps
}

// batchNormKeys encodes the normalized key of every row on the given
// columns, packing all keys into one piece of the arena sized exactly
// by NormKeysSize; the keys are valid until the query's session ends.
func batchNormKeys(a *scratch.Arena, b *tuple.Batch, cols []int, widen []bool) [][]byte {
	n := b.Len()
	arena, keys := a.Bytes.Alloc(b.NormKeysSize(cols))[:0], a.Keys.Alloc(n)
	for i := 0; i < n; i++ {
		start := len(arena)
		arena = b.AppendNormKey(arena, i, cols, widen)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	return keys
}

// cumRef packs the position of one cumulative-run element: the stage
// whose run it belongs to and its index within that run.
type cumRef int64

func makeRef(stage, idx int) cumRef { return cumRef(int64(stage)<<32 | int64(idx)) }
func (r cumRef) stage() int         { return int(int64(r) >> 32) }
func (r cumRef) idx() int           { return int(int32(int64(r))) }

// mergeSide is one side's incremental state: the immutable per-stage
// sorted runs with their group summaries, and the cumulative key order
// over all of them as a pointer-free reference sequence. Within an
// equal-key range of cum, elements are ordered by stage, then by
// position within their stage's run (the order a stage-by-stage stable
// merge produces).
type mergeSide struct {
	runs  []sortedRun
	cum   []cumRef
	spare []cumRef // double-buffer target for the next merge
}

func (s *mergeSide) key(r cumRef) []byte { return s.runs[r.stage()].keys[r.idx()] }
func (s *mergeSide) pre(r cumRef) uint64 { return s.runs[r.stage()].pres[r.idx()] }
func (s *mergeSide) row(r cumRef) int32  { return s.runs[r.stage()].perm[r.idx()] }

// addRun appends a stage's sorted run and folds it into the cumulative
// order, old elements winning key ties (stage-stable).
func (s *mergeSide) addRun(rec *slabs, r sortedRun) {
	stage := len(s.runs)
	r.groups = groupsOf(rec, r.keys, r.pres)
	s.runs = append(rec.runs.Grow(s.runs, 1), r)
	if r.len() == 0 {
		return
	}
	need := len(s.cum) + r.len()
	out := s.spare[:0]
	if cap(out) < need {
		// Overallocate so the buffer survives several generations of
		// the double-buffer swap instead of being replaced every stage.
		out = rec.refs.Alloc(need + need/2)[:0]
	}
	i, j := 0, 0
	for i < len(s.cum) && j < r.len() {
		c := s.cum[i]
		if cmpKeys(s.pre(c), s.key(c), r.pres[j], r.keys[j]) <= 0 {
			out = append(out, c)
			i++
		} else {
			out = append(out, makeRef(stage, j))
			j++
		}
	}
	out = append(out, s.cum[i:]...)
	for ; j < r.len(); j++ {
		out = append(out, makeRef(stage, j))
	}
	s.spare = s.cum
	s.cum = out
}

// pairBucket collects the matches of one logical Fig. 4.5 pair as
// parallel row indices into the pair's left and right batches.
type pairBucket struct{ l, r []int32 }

// add appends one match, growing on the filling goroutine's arena.
func (p *pairBucket) add(mem *scratch.Arena, l, r int32) {
	if len(p.l) == cap(p.l) {
		p.l, p.r = mem.I32.Grow(p.l, 1), mem.I32.Grow(p.r, 1)
	}
	p.l = append(p.l, l)
	p.r = append(p.r, r)
}

// resetBuckets returns buf resized to n empty buckets, reusing backing
// arrays from previous stages.
func resetBuckets(rec *slabs, buf []pairBucket, n int) []pairBucket {
	for i := range buf {
		buf[i].l, buf[i].r = buf[i].l[:0], buf[i].r[:0]
	}
	for len(buf) < n {
		buf = append(rec.buckets.Grow(buf, 1), pairBucket{})
	}
	return buf[:n]
}

// countPoll returns a poll function that only counts: the shape bucket
// joins use off the engine goroutine, where an unarmed deadline can
// never expire (polls read no clock) but the poll totals must still
// land in the trace exactly as the serial walk would have counted them.
func countPoll(c *int64) func() error {
	return func() error {
		*c++
		return nil
	}
}

// bucketJoin merge-joins a new run against a side's cumulative run,
// adding the (left row, right row) pair of every match — the new run is
// the left input when newIsLeft — to buckets[stage of the cum element].
// Because an equal-key range of the cumulative run is ordered
// stage-major with within-run order preserved, bucket t receives exactly
// the output the per-pair plan's merge-join of (new × run_t) would emit,
// in the same order: keys ascending, left-major within a key.
//
// poll is a parameter so the two bucket joins of a stage can run on
// separate goroutines, each with a local poll counter and arena (see
// advanceCumulative). The walk itself reads only immutable run/cum
// state and writes only its own buckets.
func bucketJoin(mem *scratch.Arena, nw sortedRun, side *mergeSide, newIsLeft bool, buckets []pairBucket, poll func() error) error {
	cum := side.cum
	i, j := 0, 0
	ops := 0
	for i < nw.len() && j < len(cum) {
		if ops++; ops%mergePollInterval == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		c := cmpKeys(nw.pres[i], nw.keys[i], side.pre(cum[j]), side.key(cum[j]))
		if c < 0 {
			i++
			continue
		}
		if c > 0 {
			j++
			continue
		}
		i2 := i + 1
		for i2 < nw.len() && eqKeys(nw.pres[i2], nw.keys[i2], nw.pres[i], nw.keys[i]) {
			i2++
		}
		j2 := j + 1
		for j2 < len(cum) && eqKeys(side.pre(cum[j2]), side.key(cum[j2]), side.pre(cum[j]), side.key(cum[j])) {
			j2++
		}
		if newIsLeft {
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if ops++; ops%mergePollInterval == 0 {
						if err := poll(); err != nil {
							return err
						}
					}
					buckets[cum[b].stage()].add(mem, nw.perm[a], side.row(cum[b]))
				}
			}
		} else {
			for b := j; b < j2; b++ {
				bk, row := &buckets[cum[b].stage()], side.row(cum[b])
				for a := i; a < i2; a++ {
					if ops++; ops%mergePollInterval == 0 {
						if err := poll(); err != nil {
							return err
						}
					}
					bk.add(mem, row, nw.perm[a])
				}
			}
		}
		i, j = i2, j2
	}
	return nil
}

// chargePair charges the simulated cost of one logical Fig. 4.5 pair
// exactly as the per-pair plan does: a merge-join of two non-empty runs
// polls the deadline on its first iteration before any comparison (and,
// with no clock charges inside the walk, can only abort there), then
// the comparison count is charged in deadline-polled chunks.
func (n *mergeNode) chargePair(lLen, rLen int, comps int64) error {
	if lLen > 0 && rLen > 0 {
		if err := n.env.checkDeadline(); err != nil {
			return err
		}
	}
	return n.env.chargeChunked(comps, n.env.Store.Costs().TupleCompare)
}

// gather appends one logical pair's matches to the stage output: the
// left rows alone for an intersect, left∘right rows for a join.
func (n *mergeNode) gather(out *tuple.Batch, l, r *tuple.Batch, bk pairBucket) {
	if n.op == OpIntersect {
		r = nil
	}
	out.AppendJoined(l, bk.l, r, bk.r)
}

// advanceCumulative runs step 3 of the full-fulfillment plan over the
// cumulative runs: two physical merge-joins, per-pair charges, and the
// Fig. 4.5-ordered output assembly. Returns the stage output and the
// merge step units.
func (n *mergeNode) advanceCumulative(lRun, rRun sortedRun) (*tuple.Batch, float64, error) {
	s := n.stages - 1 // 0-based index of this stage

	// Physical work: newL × (cumR ∪ newR), then cumL_old × newR. The two
	// joins read disjoint mutable state (their buckets) over immutable
	// runs, and under an unarmed deadline their polls cannot fail and
	// read no clock — so they may run on two goroutines, with each
	// join's polls counted locally and folded back in join order. Under
	// an armed deadline the serial walk is kept: an abort's position
	// depends on the global poll interleaving.
	mem, par := n.env.mem, n.env.par
	n.rside.addRun(n.env.rec, rRun)
	n.bucketsA = resetBuckets(n.env.rec, n.bucketsA, s+1)
	n.bucketsB = resetBuckets(n.env.rec, n.bucketsB, s)
	if n.env.armedDeadline().Armed() {
		if err := bucketJoin(mem, lRun, &n.rside, true, n.bucketsA, n.env.checkDeadline); err != nil {
			return nil, 0, err
		}
		if err := bucketJoin(par, rRun, &n.lside, false, n.bucketsB, n.env.checkDeadline); err != nil {
			return nil, 0, err
		}
	} else {
		var pollsA, pollsB int64
		sizeA := lRun.len() + len(n.rside.cum)
		sizeB := rRun.len() + len(n.lside.cum)
		// A counting poll never fails, so neither can these walks.
		n.env.runPar(min(sizeA, sizeB), func() {
			bucketJoin(mem, lRun, &n.rside, true, n.bucketsA, countPoll(&pollsA))
		}, func() {
			bucketJoin(par, rRun, &n.lside, false, n.bucketsB, countPoll(&pollsB))
		})
		n.env.DeadlinePolls += pollsA + pollsB
	}
	n.lside.addRun(n.env.rec, lRun)

	// Simulated charges, in the per-pair plan's order.
	lg := n.lside.runs[s].groups
	rg := n.rside.runs[s].groups
	var mergeUnits float64
	for i := 0; i <= s; i++ {
		rLen := n.rside.runs[i].len()
		if err := n.chargePair(lRun.len(), rLen, pairComps(lg, n.rside.runs[i].groups)); err != nil {
			return nil, 0, err
		}
		mergeUnits += float64(lRun.len() + rLen)
	}
	for i := 0; i < s; i++ {
		lLen := n.lside.runs[i].len()
		if err := n.chargePair(lLen, rRun.len(), pairComps(n.lside.runs[i].groups, rg)); err != nil {
			return nil, 0, err
		}
		mergeUnits += float64(lLen + rRun.len())
	}

	// Assemble the output in pair order: A_0..A_s (newL × run_i of the
	// right side, the new right run last), then B_0..B_{s-1}.
	total := 0
	for _, bk := range n.bucketsA {
		total += len(bk.l)
	}
	for _, bk := range n.bucketsB {
		total += len(bk.l)
	}
	out := tuple.NewBatchCap(mem, n.schema, total)
	for i, bk := range n.bucketsA {
		n.gather(out, lRun.b, n.rside.runs[i].b, bk)
	}
	for i, bk := range n.bucketsB {
		n.gather(out, n.lside.runs[i].b, rRun.b, bk)
	}
	return out, mergeUnits, nil
}

// advanceSameStage runs step 3 of the partial-fulfillment plan: the one
// same-stage pair, merge-joined element by element with its comparisons
// counted as it goes and charged afterwards.
func (n *mergeNode) advanceSameStage(l, r sortedRun) (*tuple.Batch, float64, error) {
	var bk pairBucket
	var comps int64
	i, j := 0, 0
	for i < l.len() && j < r.len() {
		if (i+j)%16 == 0 {
			if err := n.env.checkDeadline(); err != nil {
				return nil, 0, err
			}
		}
		comps++
		c := cmpKeys(l.pres[i], l.keys[i], r.pres[j], r.keys[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the extent of the equal-key groups on both sides.
			i2 := i + 1
			for i2 < l.len() && eqKeys(l.pres[i2], l.keys[i2], l.pres[i], l.keys[i]) {
				comps++
				i2++
			}
			j2 := j + 1
			for j2 < r.len() && eqKeys(r.pres[j2], r.keys[j2], r.pres[j], r.keys[j]) {
				comps++
				j2++
			}
			// Emit the group cross product, polling the deadline at
			// block granularity: a skewed key can make this loop the
			// longest uninterruptible stretch of a stage.
			emitted := 0
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if emitted%mergePollInterval == 0 {
						if err := n.env.checkDeadline(); err != nil {
							return nil, 0, err
						}
					}
					emitted++
					bk.add(n.env.mem, l.perm[a], r.perm[b])
				}
			}
			i, j = i2, j2
		}
	}
	if err := n.env.chargeChunked(comps, n.env.Store.Costs().TupleCompare); err != nil {
		return nil, 0, err
	}
	out := tuple.NewBatchCap(n.env.mem, n.schema, len(bk.l))
	n.gather(out, l.b, r.b, bk)
	return out, float64(l.len() + r.len()), nil
}

// sortNewRuns sorts both sides' new samples (step 2) by their cached
// normalized keys and returns the runs plus the comparison count to
// charge. The two sides are independent and charge-free, so they may
// run on two goroutines (runPar) when a sub-worker slot is free, the
// second on the environment's par arena: the comparison counts are
// deterministic functions of the inputs and are charged by the caller
// afterwards, so scheduling cannot perturb the simulation.
func (n *mergeNode) sortNewRuns(newL, newR *tuple.Batch) (lRun, rRun sortedRun, comps int64) {
	var lc, rc int64
	n.env.runPar(min(newL.Len(), newR.Len()), func() {
		lRun, lc = sortRun(n.env.mem, newL, n.lcols, n.widen)
	}, func() {
		rRun, rc = sortRun(n.env.par, newR, n.rcols, n.widen)
	})
	return lRun, rRun, lc + rc
}

func sortRun(a *scratch.Arena, b *tuple.Batch, cols []int, widen []bool) (sortedRun, int64) {
	res := sortx.SortKeyedIdx(a, batchNormKeys(a, b, cols, widen), 0)
	return sortedRun{b: b, perm: res.Perm, keys: res.Keys, pres: res.Pres}, res.Comparisons
}
