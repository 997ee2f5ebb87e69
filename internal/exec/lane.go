package exec

import (
	"sort"
	"time"

	"tcq/internal/storage"
	"tcq/internal/vclock"
)

// Deterministic parallel term evaluation.
//
// The engine's determinism contract says a seeded run must be
// byte-identical — estimates, tables and traces — no matter how many
// workers evaluate it. The obstacle is the session clock: under a
// simulated clock every Charge consumes seeded jitter randomness, so
// the *order* of charges decides the virtual timeline. Letting worker
// goroutines charge the shared clock directly would make that order a
// scheduling accident.
//
// A lane solves this with record/replay: while a term executes on a
// worker, its charges go to the lane (a recording clock), its temp-file
// counters to the lane's private counter set, and its step timings are
// kept as *spans over the charge log* rather than durations. After all
// terms of a stage finish, the lanes are replayed onto the real clock
// in fixed term order — exactly the sequence a serial run would have
// produced — and the recorded spans are resolved into the same jittered
// durations a serial run would have measured. Parallelism therefore
// changes wall-clock speed only, never the simulation.
//
// The charge log is run-length encoded: executors charge long runs of
// identical durations (per-tuple checks, batched writes), so the log is
// a few runs per step rather than one entry per tuple, and replay can
// push whole runs onto the session clock with one lock acquisition
// (vclock.ChargeRun — draw-for-draw identical to charging singly).
type lane struct {
	runs     []chargeRun  // recorded positive charges, RLE, in order
	total    int          // Σ runs[i].n — the charge-log length
	pending  []laneTiming // step timings as charge-log spans
	counters storage.Counters
	rec      *slabs // the lane environment's record slabs: runs grows there
}

// chargeRun is a run of n consecutive identical charges of duration d.
type chargeRun struct {
	d time.Duration
	n int
}

// laneTiming is a StepTiming whose Actual duration is still unresolved:
// it covers charges [start, end) of the lane's log.
type laneTiming struct {
	t          StepTiming
	start, end int
}

// Charge implements vclock.Clock by recording the nominal charge for
// later replay. Non-positive charges are dropped, mirroring Sim.Charge
// (which consumes no jitter randomness for them either).
func (l *lane) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	l.append(d, 1)
}

// ChargeRun implements vclock.RunCharger: n identical charges recorded
// as one run.
func (l *lane) ChargeRun(d time.Duration, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	l.append(d, n)
}

func (l *lane) append(d time.Duration, n int) {
	if k := len(l.runs) - 1; k >= 0 && l.runs[k].d == d {
		l.runs[k].n += n
	} else {
		l.runs = append(l.rec.charges.Grow(l.runs, 1), chargeRun{d: d, n: n})
	}
	l.total += n
}

// Now implements vclock.Clock; on a lane it is a position in the charge
// log, not a time. Executors only ever use Now to delimit spans
// (t0 := Now(); ...; record(..., Now()-t0)), so index arithmetic is
// exactly what resolves to real durations at replay.
func (l *lane) Now() time.Duration { return time.Duration(l.total) }

var (
	_ vclock.Clock      = (*lane)(nil)
	_ vclock.RunCharger = (*lane)(nil)
)

// replay applies the lane's charge log to the real clock, resolves the
// pending timings against the resulting (jittered) timeline, folds the
// lane's counters into the session store, and clears the lane for the
// next stage. It must be called from the engine goroutine, in term
// order. Charges are pushed run-wise, splitting runs only at span
// boundaries the pending timings reference.
func (e *Env) replayLane(root *Env) {
	l := e.lane
	if l == nil || (l.total == 0 && len(l.pending) == 0 &&
		e.Comparisons == 0 && e.DeadlinePolls == 0 && l.counters == (storage.Counters{})) {
		return
	}
	clock := root.Store.Clock()

	// Sorted span boundaries at which the replay must read the clock.
	bounds := root.mem.Idx.Alloc(2 * len(l.pending))[:0]
	for _, lt := range l.pending {
		bounds = append(bounds, lt.start, lt.end)
	}
	sort.Ints(bounds)
	at := root.mem.Ints.Alloc(len(bounds))
	pos, bi := 0, 0
	mark := func() {
		for bi < len(bounds) && bounds[bi] == pos {
			at[bi] = int64(clock.Now())
			bi++
		}
	}
	mark()
	for _, r := range l.runs {
		rem := r.n
		for rem > 0 {
			next := pos + rem
			if bi < len(bounds) && bounds[bi] < next {
				next = bounds[bi]
			}
			vclock.ChargeRun(clock, r.d, next-pos)
			rem -= next - pos
			pos = next
			mark()
		}
	}
	for _, lt := range l.pending {
		st := lt.t
		st.Actual = time.Duration(at[sort.SearchInts(bounds, lt.end)] - at[sort.SearchInts(bounds, lt.start)])
		root.Timings = append(root.rec.timings.Grow(root.Timings, 1), st)
	}
	root.Comparisons += e.Comparisons
	root.DeadlinePolls += e.DeadlinePolls
	root.Store.AddCounters(l.counters)

	e.Comparisons, e.DeadlinePolls = 0, 0
	l.runs = l.runs[:0]
	l.total = 0
	l.pending = l.pending[:0]
	l.counters = storage.Counters{}
}
