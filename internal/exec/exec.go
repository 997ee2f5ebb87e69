// Package exec implements the stage-by-stage sample executors of the
// paper's Section 4: the estimator-evaluation algorithms for Select
// (Fig. 4.3), Intersect (Fig. 4.4), Join (Fig. 4.6) and Project
// (Fig. 4.7) over cluster samples, under the full fulfillment plan
// (every new stage's sample is combined with all previous stages'
// samples, Fig. 4.1/4.5) or the partial fulfillment plan (same-stage
// samples only).
//
// Executors do the real work against the storage engine (charging block
// reads, temp-file writes, sort comparisons and merges to the session
// clock) and record per-step timings that the adaptive cost model
// (internal/cost) fits its coefficients against — exactly the paper's
// run-time coefficient adjustment.
package exec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"tcq/internal/ra"
	"tcq/internal/scratch"
	"tcq/internal/sortx"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// ErrAborted wraps storage.ErrDeadline for stage aborts.
var ErrAborted = storage.ErrDeadline

// OpKind identifies the RA operator a node implements.
type OpKind int

// Operator kinds.
const (
	OpBase OpKind = iota
	OpSelect
	OpJoin
	OpIntersect
	OpProject
)

// String returns the operator name.
func (k OpKind) String() string {
	switch k {
	case OpBase:
		return "base"
	case OpSelect:
		return "select"
	case OpJoin:
		return "join"
	case OpIntersect:
		return "intersect"
	case OpProject:
		return "project"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// StepKind identifies a time-consuming step within an operator (the
// paper derives one cost term per step: write, sort, merge, scan,
// output).
type StepKind int

// Step kinds.
const (
	StepRead   StepKind = iota // reading sampled blocks (base nodes)
	StepScan                   // reading/checking tuples (select, project dedup)
	StepWrite                  // writing sample tuples to temp files
	StepSort                   // external sort of a stage's run
	StepMerge                  // merging runs (intersect/join pairs)
	StepOutput                 // writing output tuples/pages
	StepInit                   // fixed per-stage operator initialisation (overhead)
)

// String returns the step name.
func (k StepKind) String() string {
	switch k {
	case StepRead:
		return "read"
	case StepScan:
		return "scan"
	case StepWrite:
		return "write"
	case StepSort:
		return "sort"
	case StepMerge:
		return "merge"
	case StepOutput:
		return "output"
	case StepInit:
		return "init"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// StepTiming is one observed (units, duration) pair for a node step;
// the adaptive cost model fits coefficient = Σduration/Σunits per
// (node, step).
type StepTiming struct {
	NodeID int
	Op     OpKind
	Step   StepKind
	Units  float64
	Actual time.Duration
}

// Env is the shared execution environment of one query.
type Env struct {
	Store   *storage.Store
	Timings []StepTiming
	// Comparisons counts sort/merge tuple comparisons charged so far;
	// DeadlinePolls counts hard-deadline checks. Both are plain int64
	// increments on the hot path, read by the observability layer as
	// per-stage deltas (internal/core builds trace.Charges from them).
	Comparisons   int64
	DeadlinePolls int64
	nextID        int
	deadline      vclock.Deadline
	// root/lane are set on per-term fork environments during parallel
	// evaluation (see lane.go): node ids are allocated from the root so
	// serial and parallel builds number nodes identically, and charges
	// are recorded on the lane for ordered replay.
	root *Env
	lane *lane
	// subSem (root environments only) grants slots for sub-term
	// parallelism: charge-free sub-tasks inside one operator stage
	// (per-side sorts, the two bucket joins of a merge) may run on an
	// extra goroutine when a slot is free. See runPar.
	subSem chan struct{}
	// mem is the arena of the goroutine the operators run on (rec: exec's
	// own records on it), par that of runPar's second closure.
	mem, par *scratch.Arena
	rec      *slabs
}

// slabs are the executor records a query's arena hands out.
type slabs struct {
	timings scratch.Slab[StepTiming]
	charges scratch.Slab[chargeRun]
	pending scratch.Slab[laneTiming]
	groups  scratch.Slab[keyGroup]
	refs    scratch.Slab[cumRef]
	runs    scratch.Slab[sortedRun]
	buckets scratch.Slab[pairBucket]
	stages  scratch.Slab[*tuple.Batch]
	bools   scratch.Slab[bool]
}

func (m *slabs) Reset() {
	const junk = -0x5A5A5A5B
	m.timings.Reset(StepTiming{NodeID: junk, Units: junk, Actual: junk})
	m.charges.Reset(chargeRun{d: junk, n: junk})
	m.pending.Reset(laneTiming{start: junk, end: junk})
	m.groups.Reset(keyGroup{pre: 0xA5A5A5A5A5A5A5A5, cnt: junk})
	m.refs.Reset(junk)
	m.runs.Reset(sortedRun{})
	m.buckets.Reset(pairBucket{})
	m.stages.Reset(nil)
	m.bools.Reset(true)
}

// NewEnv creates an execution environment on the store's query arena.
func NewEnv(store *storage.Store) *Env { return newEnv(store, nil, store.Scratch()) }

func newEnv(store *storage.Store, root *Env, mem *scratch.Arena) *Env {
	return &Env{Store: store, root: root, mem: mem, par: mem.Child(), rec: scratch.Of[slabs](mem)}
}

// Scratch returns the arena of the query this environment evaluates.
func (e *Env) Scratch() *scratch.Arena { return e.mem }

// fork derives a per-term recording environment: same session store and
// deadline, node ids allocated from the root, a child arena (the term
// may run on its own goroutine), and all clock charges, temp-file
// counters and step timings captured on a private lane until replayLane
// folds them back in term order.
func (e *Env) fork() *Env {
	f := newEnv(e.Store, e, e.mem.Child())
	f.lane = &lane{rec: f.rec}
	return f
}

// Clock returns the clock executors must charge: the per-term recording
// lane during parallel evaluation, the session clock otherwise.
func (e *Env) Clock() vclock.Clock {
	if e.lane != nil {
		return e.lane
	}
	return e.Store.Clock()
}

// NewScratchFile creates a charge-only temp file whose costs flow to
// this environment's charge sink (lane or session store).
func (e *Env) NewScratchFile(schema *tuple.Schema) storage.TempFile {
	if e.lane != nil {
		return e.Store.NewScratchFileOn(schema, e.lane, &e.lane.counters)
	}
	return e.Store.NewScratchFile(schema)
}

// SetDeadline arms (or disarms, with vclock.Unarmed()) the hard
// deadline honoured by all executors of this environment.
func (e *Env) SetDeadline(dl vclock.Deadline) { e.deadline = dl }

// SetSubWorkers sets the worker budget for sub-term parallelism on the
// root environment: with n > 1, up to n-1 sub-tasks may run on extra
// goroutines concurrently with their spawners (runPar). Must be called
// before evaluation starts. On a single-CPU host no slots are granted:
// a fan-out can never overlap with its spawner there, so even sizes
// past the subParMin floor would pay goroutine handoff for nothing —
// runPar is charge-free, so staying inline changes no result.
func (e *Env) SetSubWorkers(n int) {
	if n > 1 && runtime.GOMAXPROCS(0) > 1 {
		e.subSem = make(chan struct{}, n-1)
	} else {
		e.subSem = nil
	}
}

// armedDeadline returns the deadline executors poll: fork environments
// consult the root (SetDeadline is called between stages on the root).
func (e *Env) armedDeadline() vclock.Deadline {
	if e.root != nil {
		return e.root.deadline
	}
	return e.deadline
}

// subParMin is the smallest per-closure work size (in tuples) worth a
// sub-term fan-out: below it the goroutine handoff plus the cache
// migration of the operands costs more than the overlap buys back, so
// runPar stays inline and parallelism can only ever help.
const subParMin = 512

// runPar runs a and b, on two goroutines when a sub-worker slot is
// free and the smaller closure processes at least size tuples, inline
// (a then b) otherwise. Both closures must be independent and
// charge-free against shared clocks and counters — sorts and
// bucket-join walks qualify, anything that touches e.Clock(),
// e.DeadlinePolls or e.Comparisons does not — so scheduling changes
// wall-clock speed only, never the simulation.
func (e *Env) runPar(size int, a, b func()) {
	root := e
	if e.root != nil {
		root = e.root
	}
	if sem := root.subSem; sem != nil && size >= subParMin {
		select {
		case sem <- struct{}{}:
			done := make(chan struct{})
			go func() {
				defer close(done)
				b()
			}()
			a()
			<-done
			<-sem
			return
		default:
		}
	}
	a()
	b()
}

// pollChargeRun performs n iterations of {poll deadline; charge d} —
// the per-tuple scan accounting shape. When the deadline is unarmed the
// polls cannot fail and read no clock, so the whole run collapses to
// one counter add and one batched charge (one lock, n jitter draws —
// vclock.ChargeRun is draw-for-draw identical to n Charges).
func (e *Env) pollChargeRun(n int, d time.Duration) error {
	if n <= 0 {
		return nil
	}
	if e.armedDeadline().Armed() {
		clock := e.Clock()
		for i := 0; i < n; i++ {
			if err := e.checkDeadline(); err != nil {
				return err
			}
			clock.Charge(d)
		}
		return nil
	}
	e.DeadlinePolls += int64(n)
	vclock.ChargeRun(e.Clock(), d, n)
	return nil
}

// writeRun performs n iterations of {poll deadline; write to f} — the
// output-loop shape of select and merge nodes. The unarmed path batches
// the writes into one TempFile.WriteN.
func (e *Env) writeRun(f *storage.TempFile, n int) error {
	if n <= 0 {
		return nil
	}
	if e.armedDeadline().Armed() {
		for i := 0; i < n; i++ {
			if err := e.checkDeadline(); err != nil {
				return err
			}
			f.WriteN(1)
		}
		return nil
	}
	e.DeadlinePolls += int64(n)
	f.WriteN(n)
	return nil
}

// TakeTimings returns and clears the step timings recorded so far.
func (e *Env) TakeTimings() []StepTiming {
	t := e.Timings
	e.Timings = nil
	return t
}

func (e *Env) newID() int {
	if e.root != nil {
		return e.root.newID()
	}
	e.nextID++
	return e.nextID - 1
}

// record logs a step timing. On a lane environment the duration argument
// is a span over the lane's charge log (lane.Now() is an index), kept
// pending until replay resolves it into the real jittered duration.
func (e *Env) record(nodeID int, op OpKind, step StepKind, units float64, actual time.Duration) {
	st := StepTiming{NodeID: nodeID, Op: op, Step: step, Units: units, Actual: actual}
	if e.lane != nil {
		end := int(e.lane.Now())
		e.lane.pending = append(e.rec.pending.Grow(e.lane.pending, 1), laneTiming{t: st, start: end - int(actual), end: end})
		return
	}
	e.Timings = append(e.rec.timings.Grow(e.Timings, 1), st)
}

// chargeInit charges the fixed per-stage initialisation overhead of one
// operator and records it, modelling the paper's per-stage "overhead"
// (the reason more stages cost more for the same overall sample size).
func (e *Env) chargeInit(nodeID int, op OpKind) {
	clock := e.Clock()
	t0 := clock.Now()
	clock.Charge(e.Store.Costs().OpInit)
	e.record(nodeID, op, StepInit, 1, clock.Now()-t0)
}

// chargeChunked charges n units of per-unit cost in bounded chunks,
// checking the hard deadline between chunks so that a timer interrupt
// can abort inside a long sort, merge or write phase (a single bulk
// charge could overshoot the quota by the phase's whole duration).
func (e *Env) chargeChunked(n int64, per time.Duration) error {
	const chunk = 64
	// Every chunked charge today is a batch of tuple comparisons
	// (sort, merge, dedup scans), so the comparison counter lives here.
	e.Comparisons += n
	clock := e.Clock()
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		clock.Charge(time.Duration(c) * per)
		n -= c
		if err := e.checkDeadline(); err != nil {
			return err
		}
	}
	return nil
}

// checkDeadline returns ErrAborted when the hard deadline has passed.
// Fork environments consult the root's deadline: SetDeadline is called
// between stages on the root, and hard-deadline queries always run
// serially (an abort point depends on the global charge interleaving,
// which deferred lane charges cannot reproduce).
func (e *Env) checkDeadline() error {
	e.DeadlinePolls++
	if e.armedDeadline().Expired() {
		return fmt.Errorf("exec: stage aborted: %w", ErrAborted)
	}
	return nil
}

// Stats summarises one node's cumulative point-space coverage, used by
// Revise-Selectivities (Fig. 3.3): sel = CumTuples / CumPoints.
type Stats struct {
	CumPoints float64 // points of the operator's point space covered
	CumOut    float64 // output tuples produced
}

// Node is one operator of a term's executor tree. Advance evaluates one
// more stage, returning the node's NEW output tuples for that stage as
// a read-only columnar batch.
type Node interface {
	// ID returns the node's unique id within its Env.
	ID() int
	// Op returns the operator kind.
	Op() OpKind
	// Schema returns the node's output schema.
	Schema() *tuple.Schema
	// Advance evaluates stage (0-based) and returns the new outputs.
	// Stages must be advanced in order, exactly once each.
	Advance(stage int) (*tuple.Batch, error)
	// Stats returns cumulative selectivity bookkeeping.
	Stats() Stats
	// CumOutTuples returns the cumulative number of output tuples.
	CumOutTuples() int64
}

// Feed supplies the per-stage sample of one base relation, shared by
// every base node over that relation (samples must be drawn once per
// relation per stage, and block reads charged once).
//
// Two sampling techniques are supported (the paper's Fig. 3.2
// decision): cluster sampling, where whole disk blocks are the sample
// units (the prototype's choice — "efficient in sampling and in
// evaluation"), and simple random sampling of tuples, where every
// sampled tuple costs a full block read (the reason the paper rejects
// it for disk-resident data).
type Feed struct {
	Rel       *storage.Relation
	env       *Env
	nodeID    int // pseudo-node id for read-step timings
	srs       bool
	stages    []*tuple.Batch
	cumTuples int64
	cumBlocks int
}

// NewFeed creates the sample feed for one base relation.
func NewFeed(env *Env, rel *storage.Relation) *Feed {
	return &Feed{Rel: rel, env: env, nodeID: env.newID()}
}

// SetSRS switches the feed to simple-random-sampling mode: LoadStage's
// indices denote individual tuples instead of blocks. Must be set
// before the first stage loads.
func (f *Feed) SetSRS(srs bool) { f.srs = srs }

// LoadStage reads the given sample as the feed's next stage: block
// indices under cluster sampling, tuple indices under SRS (each tuple
// read charges one full block read — random tuples live in random
// blocks). It charges reads and records the read-step timing, whose
// units are the reads performed. On deadline expiry it returns
// ErrAborted (wrapped); the partially read stage is discarded.
func (f *Feed) LoadStage(indices []int) error {
	f.env.chargeInit(f.nodeID, OpBase)
	clock := f.env.Clock()
	t0 := clock.Now()
	bf := f.Rel.BlockingFactor()
	per := bf
	if f.srs {
		per = 1
	}
	stage := tuple.NewBatchCap(f.env.mem, f.Rel.Schema(), len(indices)*per)
	for _, i := range indices {
		// The block to read and the block-relative row range to keep: the
		// whole block under cluster sampling, one tuple under SRS.
		bi, lo, hi := i, 0, bf
		if f.srs {
			bi, lo = i/bf, i%bf
			hi = lo + 1
		}
		n, err := f.Rel.AppendBlockIn(f.env.Store, stage, bi, lo, hi, f.env.deadline)
		if err != nil {
			return err
		}
		if lo >= n {
			return fmt.Errorf("exec: tuple index %d out of range in %s", i, f.Rel.Name())
		}
	}
	f.env.record(f.nodeID, OpBase, StepRead, float64(len(indices)), clock.Now()-t0)
	f.stages = append(f.env.rec.stages.Grow(f.stages, 1), stage)
	f.cumTuples += int64(stage.Len())
	f.cumBlocks += len(indices) // under SRS: blocks touched (no caching assumed)
	return nil
}

// StageLen returns the number of tuples loaded for a stage (0 when out
// of range).
func (f *Feed) StageLen(stage int) int {
	if stage < 0 || stage >= len(f.stages) {
		return 0
	}
	return f.stages[stage].Len()
}

// Stages returns how many stages have been loaded.
func (f *Feed) Stages() int { return len(f.stages) }

// CumTuples returns the cumulative sampled tuple count.
func (f *Feed) CumTuples() int64 { return f.cumTuples }

// CumBlocks returns the cumulative sampled block count.
func (f *Feed) CumBlocks() int { return f.cumBlocks }

// Plan selects between the paper's two cluster-sampling evaluation
// plans.
type Plan int

const (
	// FullFulfillment combines each stage's new sample with all
	// previous stages' samples (Fig. 4.1): after s stages every cross
	// combination of sampled blocks is evaluated.
	FullFulfillment Plan = iota
	// PartialFulfillment combines only same-stage samples; cheaper per
	// stage but covers fewer points for the same I/O ([HoOT 88a]).
	PartialFulfillment
)

// String names the plan.
func (p Plan) String() string {
	if p == PartialFulfillment {
		return "partial"
	}
	return "full"
}

// Build compiles a set-operation-free SJIP expression (an atom of a
// ra.Term, or a whole term via BuildTerm) into an executor tree. feeds
// must contain a Feed for every base relation in the expression.
func Build(e ra.Expr, env *Env, cat ra.Catalog, feeds map[string]*Feed, plan Plan) (Node, error) {
	switch v := e.(type) {
	case *ra.Base:
		feed, ok := feeds[v.Name]
		if !ok {
			return nil, fmt.Errorf("exec: no feed for relation %q", v.Name)
		}
		return newBaseNode(env, feed, v)

	case *ra.Select:
		child, err := Build(v.Input, env, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		return newSelectNode(env, child, v.Pred, v)

	case *ra.Project:
		child, err := Build(v.Input, env, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		return newProjectNode(env, child, v.Cols, v)

	case *ra.Join:
		left, err := Build(v.Left, env, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		right, err := Build(v.Right, env, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		return newJoinNode(env, left, right, v.On, plan, v)

	case *ra.Intersect:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("exec: empty intersect")
		}
		node, err := Build(v.Inputs[0], env, cat, feeds, plan)
		if err != nil {
			return nil, err
		}
		for i, in := range v.Inputs[1:] {
			right, err := Build(in, env, cat, feeds, plan)
			if err != nil {
				return nil, err
			}
			// The chained binary node denotes the prefix intersection.
			prefix := &ra.Intersect{Inputs: append([]ra.Expr{}, v.Inputs[:i+2]...)}
			node, err = newIntersectNode(env, node, right, plan, prefix)
			if err != nil {
				return nil, err
			}
		}
		return node, nil

	default:
		return nil, fmt.Errorf("exec: unsupported expression %T (set ops must be removed by ra.Terms)", e)
	}
}

// BuildTerm compiles one ra.Term into an executor tree.
func BuildTerm(t ra.Term, env *Env, cat ra.Catalog, feeds map[string]*Feed, plan Plan) (Node, error) {
	return Build(t.Expr(), env, cat, feeds, plan)
}

// ---------------------------------------------------------------------------
// Base node

type baseNode struct {
	id    int
	feed  *Feed
	src   ra.Expr
	stats Stats
	info  NodeInfo
}

func newBaseNode(env *Env, feed *Feed, src ra.Expr) (Node, error) {
	// Base nodes share the feed's node id so that the read/init step
	// timings the feed records are attributed to the node the cost
	// model predicts with (several base nodes over one relation share
	// one feed and hence one set of coefficients).
	return &baseNode{id: feed.nodeID, feed: feed, src: src}, nil
}

func (n *baseNode) ID() int               { return n.id }
func (n *baseNode) Op() OpKind            { return OpBase }
func (n *baseNode) Schema() *tuple.Schema { return n.feed.Rel.Schema() }
func (n *baseNode) Stats() Stats          { return n.stats }
func (n *baseNode) CumOutTuples() int64   { return int64(n.stats.CumOut) }

func (n *baseNode) Advance(stage int) (*tuple.Batch, error) {
	if stage < 0 || stage >= len(n.feed.stages) {
		return nil, fmt.Errorf("exec: feed %s has no stage %d", n.feed.Rel.Name(), stage)
	}
	in := n.feed.stages[stage]
	n.stats.CumPoints += float64(in.Len())
	n.stats.CumOut += float64(in.Len())
	return in, nil
}

// ---------------------------------------------------------------------------
// Select node (Fig. 4.3)

type selectNode struct {
	id       int
	child    Node
	pred     ra.BatchPred
	predSize int
	src      ra.Expr
	env      *Env
	out      storage.TempFile
	stats    Stats
	info     NodeInfo
}

func newSelectNode(env *Env, child Node, pred ra.Pred, src ra.Expr) (Node, error) {
	compiled, err := ra.CompileBatch(pred, child.Schema())
	if err != nil {
		return nil, err
	}
	size := pred.Comparisons()
	if size < 1 {
		size = 1
	}
	return &selectNode{
		id:       env.newID(),
		child:    child,
		pred:     compiled,
		predSize: size,
		src:      src,
		env:      env,
		out:      env.NewScratchFile(child.Schema()),
	}, nil
}

func (n *selectNode) ID() int               { return n.id }
func (n *selectNode) Op() OpKind            { return OpSelect }
func (n *selectNode) Schema() *tuple.Schema { return n.child.Schema() }
func (n *selectNode) Stats() Stats          { return n.stats }
func (n *selectNode) CumOutTuples() int64   { return int64(n.stats.CumOut) }

func (n *selectNode) Advance(stage int) (*tuple.Batch, error) {
	in, err := n.child.Advance(stage)
	if err != nil {
		return nil, err
	}
	n.env.chargeInit(n.id, OpSelect)
	clock := n.env.Clock()
	costs := n.env.Store.Costs()

	// Scan + check each input tuple (cost c1·n of eq. 4.1): the
	// predicate runs over the column slices, then the per-tuple
	// poll+charge accounting runs as one sequence (pollChargeRun), which
	// an armed deadline aborts at the tuple a tuple-at-a-time scan would
	// have stopped at.
	t0 := clock.Now()
	bits := n.env.rec.bools.Alloc(in.Len())
	n.pred(in, bits)
	if err := n.env.pollChargeRun(in.Len(), time.Duration(n.predSize)*costs.TupleCheck); err != nil {
		return nil, err
	}
	sel := n.env.mem.I32.Alloc(in.Len())[:0]
	for i, keep := range bits {
		if keep {
			sel = append(sel, int32(i))
		}
	}
	out := in
	if len(sel) < in.Len() {
		out = in.Gather(n.env.mem, sel)
	}
	n.env.record(n.id, OpSelect, StepScan, float64(in.Len()), clock.Now()-t0)

	// Write output pages (cost C1·p of eq. 4.1).
	t0 = clock.Now()
	if err := n.env.writeRun(&n.out, out.Len()); err != nil {
		return nil, err
	}
	n.out.Flush()
	n.env.record(n.id, OpSelect, StepOutput, float64(out.Len()), clock.Now()-t0)

	n.stats.CumPoints += float64(in.Len())
	n.stats.CumOut += float64(out.Len())
	return out, nil
}

// ---------------------------------------------------------------------------
// Project node (Fig. 4.7)

type projectNode struct {
	id        int
	child     Node
	idx       []int
	schema    *tuple.Schema
	src       ra.Expr
	env       *Env
	temp      storage.TempFile
	out       storage.TempFile
	occupancy map[string]int // normalized key → times seen in the cumulative sample
	stats     Stats
	info      NodeInfo
}

func newProjectNode(env *Env, child Node, cols []string, src ra.Expr) (Node, error) {
	schema, idx, err := child.Schema().Project(cols)
	if err != nil {
		return nil, err
	}
	return &projectNode{
		id:        env.newID(),
		child:     child,
		idx:       idx,
		schema:    schema,
		src:       src,
		env:       env,
		temp:      env.NewScratchFile(schema),
		out:       env.NewScratchFile(schema),
		occupancy: make(map[string]int),
	}, nil
}

func (n *projectNode) ID() int               { return n.id }
func (n *projectNode) Op() OpKind            { return OpProject }
func (n *projectNode) Schema() *tuple.Schema { return n.schema }
func (n *projectNode) Stats() Stats          { return n.stats }
func (n *projectNode) CumOutTuples() int64   { return int64(n.stats.CumOut) }

// Occupancies returns f_i = number of distinct projected values seen
// exactly i times in the cumulative sample — the input to Goodman's
// estimator.
func (n *projectNode) Occupancies() map[int]int {
	freq := map[int]int{}
	for _, c := range n.occupancy {
		freq[c]++
	}
	return freq
}

// SampledInput returns the cumulative number of input tuples the
// projection has consumed (Goodman's sample size n).
func (n *projectNode) SampledInput() int64 { return int64(n.stats.CumPoints) }

func (n *projectNode) Advance(stage int) (*tuple.Batch, error) {
	in, err := n.child.Advance(stage)
	if err != nil {
		return nil, err
	}
	n.env.chargeInit(n.id, OpProject)
	clock := n.env.Clock()
	costs := n.env.Store.Costs()

	// Step 1: write projected attributes to a temporary file. The
	// projection itself is a zero-copy column view.
	t0 := clock.Now()
	proj := in.Project(n.env.mem, n.schema, n.idx)
	if err := n.env.writeRun(&n.temp, proj.Len()); err != nil {
		return nil, err
	}
	n.temp.Flush()
	n.env.record(n.id, OpProject, StepWrite, float64(proj.Len()), clock.Now()-t0)
	if err := n.env.checkDeadline(); err != nil {
		return nil, err
	}

	// Step 2: sort the temporary file (this stage's run) — an argsort
	// over the rows' normalized keys.
	t0 = clock.Now()
	res := sortx.SortKeyedIdx(n.env.mem, batchNormKeys(n.env.mem, proj, nil, nil), 0)
	if err := n.env.chargeChunked(res.Comparisons, costs.TupleCompare); err != nil {
		return nil, err
	}
	n.env.record(n.id, OpProject, StepSort, nLogN(proj.Len()), clock.Now()-t0)

	// Step 3: scan, count occupancies, emit newly distinct tuples. The
	// sorted run is walked group by group so the occupancy map is
	// consulted once per distinct value; the charge sequence is the
	// per-tuple one (poll, check charge, then the group winner's write,
	// then the remaining members' poll+charge pairs).
	t0 = clock.Now()
	fresh := n.env.mem.I32.Alloc(len(res.Keys))[:0]
	keys := res.Keys
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && eqKeys(res.Pres[j], keys[j], res.Pres[i], keys[i]) {
			j++
		}
		prior := n.occupancy[string(keys[i])]
		if err := n.env.pollChargeRun(1, costs.TupleCheck); err != nil {
			return nil, err
		}
		if prior == 0 {
			fresh = append(fresh, res.Perm[i])
			n.out.WriteN(1)
		}
		if err := n.env.pollChargeRun(j-i-1, costs.TupleCheck); err != nil {
			return nil, err
		}
		n.occupancy[string(keys[i])] = prior + (j - i)
		i = j
	}
	n.out.Flush()
	n.env.record(n.id, OpProject, StepScan, float64(proj.Len()), clock.Now()-t0)

	out := proj.Gather(n.env.mem, fresh)
	n.stats.CumPoints += float64(in.Len())
	n.stats.CumOut += float64(out.Len())
	return out, nil
}

// ---------------------------------------------------------------------------
// Join and Intersect nodes (Figs. 4.4–4.6)

// mergeNode implements the shared sort-merge machinery of intersect and
// join under full or partial fulfillment: per stage, write both sides'
// new tuples to temp files, sort them into runs F_{j,s}, then merge the
// new run of each side against the other side's runs per Fig. 4.5.
type mergeNode struct {
	id     int
	op     OpKind
	src    ra.Expr
	left   Node
	right  Node
	lcols  []int
	rcols  []int
	widen  []bool // key positions compared as floats (tuple.JoinWiden)
	schema *tuple.Schema
	env    *Env
	plan   Plan
	stages int // stages advanced (= per-stage runs held on each side)

	// Per-stage run summaries + cumulative sorted runs (merge.go).
	lside mergeSide
	rside mergeSide
	// Reusable stage-tag output buckets of the cumulative plan's two
	// physical bucket joins; disjoint, so the joins can run on separate
	// goroutines.
	bucketsA []pairBucket
	bucketsB []pairBucket

	lcum int64
	rcum int64
	// Charge-only files: both sides' stage samples and the output.
	lTemp, rTemp, out storage.TempFile
	stats             Stats
	info              NodeInfo
}

func newJoinNode(env *Env, left, right Node, on []ra.JoinCond, plan Plan, src ra.Expr) (Node, error) {
	lcols, rcols, err := ra.JoinCols(on, left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	schema, err := left.Schema().Concat(right.Schema(), "l", "r")
	if err != nil {
		return nil, err
	}
	return &mergeNode{
		id: env.newID(), op: OpJoin, src: src, left: left, right: right,
		lcols: lcols, rcols: rcols, schema: schema,
		widen: tuple.JoinWiden(left.Schema(), lcols, right.Schema(), rcols),
		env:   env, plan: plan, out: env.NewScratchFile(schema),
		lTemp: env.NewScratchFile(left.Schema()), rTemp: env.NewScratchFile(right.Schema()),
	}, nil
}

func newIntersectNode(env *Env, left, right Node, plan Plan, src ra.Expr) (Node, error) {
	ls, rs := left.Schema(), right.Schema()
	if ls.NumCols() != rs.NumCols() {
		return nil, fmt.Errorf("exec: intersect of incompatible schemas")
	}
	all := make([]int, ls.NumCols())
	for i := range all {
		all[i] = i
	}
	return &mergeNode{
		id: env.newID(), op: OpIntersect, src: src, left: left, right: right,
		lcols: all, rcols: all, schema: ls,
		env: env, plan: plan, out: env.NewScratchFile(ls),
		lTemp: env.NewScratchFile(ls), rTemp: env.NewScratchFile(rs),
	}, nil
}

func (n *mergeNode) ID() int               { return n.id }
func (n *mergeNode) Op() OpKind            { return n.op }
func (n *mergeNode) Schema() *tuple.Schema { return n.schema }
func (n *mergeNode) Stats() Stats          { return n.stats }
func (n *mergeNode) CumOutTuples() int64   { return int64(n.stats.CumOut) }

func (n *mergeNode) Advance(stage int) (*tuple.Batch, error) {
	newL, err := n.left.Advance(stage)
	if err != nil {
		return nil, err
	}
	newR, err := n.right.Advance(stage)
	if err != nil {
		return nil, err
	}
	n.env.chargeInit(n.id, n.op)
	clock := n.env.Clock()
	costs := n.env.Store.Costs()

	// Step 1: write sample tuples to temporary files (eq. 4.2). The
	// files are charge-only: both samples are already in memory.
	t0 := clock.Now()
	if err := n.env.writeRun(&n.lTemp, newL.Len()); err != nil {
		return nil, err
	}
	n.lTemp.Flush()
	if err := n.env.writeRun(&n.rTemp, newR.Len()); err != nil {
		return nil, err
	}
	n.rTemp.Flush()
	n.env.record(n.id, n.op, StepWrite, float64(newL.Len()+newR.Len()), clock.Now()-t0)
	if err := n.env.checkDeadline(); err != nil {
		return nil, err
	}

	// Step 2: sort both temporary files (eq. 4.3).
	t0 = clock.Now()
	lRun, rRun, comps := n.sortNewRuns(newL, newR)
	if err := n.env.chargeChunked(comps, costs.TupleCompare); err != nil {
		return nil, err
	}
	n.env.record(n.id, n.op, StepSort, nLogN(newL.Len())+nLogN(newR.Len()), clock.Now()-t0)

	n.stages++

	// Step 3: merge per the fulfillment plan (eq. 4.4, Fig. 4.5). The
	// full-fulfillment pair set is evaluated incrementally against
	// cumulative runs (merge.go), charged pair by pair.
	t0 = clock.Now()
	var out *tuple.Batch
	var mergeUnits float64
	if n.plan == FullFulfillment {
		out, mergeUnits, err = n.advanceCumulative(lRun, rRun)
	} else {
		out, mergeUnits, err = n.advanceSameStage(lRun, rRun)
	}
	if err != nil {
		return nil, err
	}
	n.env.record(n.id, n.op, StepMerge, mergeUnits, clock.Now()-t0)

	// Write output pages.
	t0 = clock.Now()
	if err := n.env.writeRun(&n.out, out.Len()); err != nil {
		return nil, err
	}
	n.out.Flush()
	n.env.record(n.id, n.op, StepOutput, float64(out.Len()), clock.Now()-t0)

	// Point-space accounting.
	var newPoints float64
	if n.plan == FullFulfillment {
		newPoints = float64(n.lcum+int64(newL.Len()))*float64(n.rcum+int64(newR.Len())) -
			float64(n.lcum)*float64(n.rcum)
	} else {
		newPoints = float64(newL.Len()) * float64(newR.Len())
	}
	n.lcum += int64(newL.Len())
	n.rcum += int64(newR.Len())
	n.stats.CumPoints += newPoints
	n.stats.CumOut += float64(out.Len())
	return out, nil
}

// nLogN returns n·log₂(n) (0 for n <= 1), the sort-step unit measure.
func nLogN(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// IsAborted reports whether err is a deadline abort.
func IsAborted(err error) bool { return errors.Is(err, ErrAborted) }
