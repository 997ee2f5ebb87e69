// Package vclock provides the clock abstraction the time-constrained
// query engine runs against.
//
// The paper's prototype (ERAM on a SUN 3/60) measured real wall-clock
// time. This reproduction supports two clocks behind one interface:
//
//   - Sim: a virtual clock advanced explicitly by the storage engine and
//     the operator executors as they "do" work. Each charge can carry
//     seeded multiplicative jitter, modelling OS/clock noise. Simulated
//     experiments are deterministic for a given seed and run orders of
//     magnitude faster than the virtual durations they model.
//   - Real: a thin wrapper over time.Now, for in-memory real-time use
//     (the examples use it). Charges are no-ops because the work itself
//     takes real time.
//
// A Deadline helper arms the paper's "timer interrupt": executors poll it
// at block granularity and abort the running stage when it fires.
package vclock

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Clock is the time source for a query session.
//
// Now returns the elapsed time since the clock was created (or reset).
// Charge accounts for d units of simulated work; real clocks ignore it.
type Clock interface {
	Now() time.Duration
	Charge(d time.Duration)
}

// Sim is a deterministic virtual clock. It is safe for concurrent use.
//
// Two noise knobs model a real machine: per-charge jitter (fine-grained
// measurement noise) and a load factor — a multiplier on all charges
// that models background system load. The load factor is resampled via
// ResampleLoad, which the query engine calls once per stage, modelling
// the between-stage load variability of the paper's timeshared SUN
// workstation (the reason the paper needs large d_β values to control
// the overspending risk).
type Sim struct {
	mu        sync.Mutex
	now       time.Duration
	jitter    float64 // stddev of multiplicative noise per charge; 0 = none
	loadSigma float64 // lognormal sigma of the per-stage load factor
	load      float64 // current load multiplier (1 = nominal)
	rng       *rand.Rand
}

// NewSim returns a simulated clock at time zero. jitter is the standard
// deviation of the multiplicative noise applied to every Charge (for
// example 0.05 means each charge is scaled by 1 + N(0, 0.05), floored at
// a tenth of its nominal value). A jitter of 0 disables noise.
func NewSim(seed int64, jitter float64) *Sim {
	return &Sim{jitter: max(jitter, 0), load: 1, rng: rand.New(rand.NewSource(seed))}
}

// Reseed returns the clock to the state of NewSim(seed, jitter), keeping
// its 4.9 KB source: how a per-query clock is recycled.
func (s *Sim) Reseed(seed int64, jitter float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng.Seed(seed)
	s.now, s.jitter, s.loadSigma, s.load = 0, max(jitter, 0), 0, 1
}

// SetLoadSigma configures the lognormal sigma of the per-stage load
// factor (0 disables load noise). The factor takes effect from the next
// ResampleLoad call.
func (s *Sim) SetLoadSigma(sigma float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sigma < 0 {
		sigma = 0
	}
	s.loadSigma = sigma
}

// ResampleLoad draws a new load factor ~ LogNormal(0, loadSigma). The
// engine calls it at every stage boundary; it is a no-op when load
// noise is disabled.
func (s *Sim) ResampleLoad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadSigma <= 0 {
		s.load = 1
		return
	}
	s.load = math.Exp(s.loadSigma * s.rng.NormFloat64())
}

// LoadFactor returns the current load multiplier.
func (s *Sim) LoadFactor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Charge advances the virtual clock by d, perturbed by the jitter model.
// Negative charges are ignored.
func (s *Sim) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	scale := s.load
	if scale == 0 {
		scale = 1
	}
	if s.jitter > 0 {
		scale *= 1 + s.jitter*s.rng.NormFloat64()
	}
	if scale < 0.1 {
		scale = 0.1
	}
	s.now += time.Duration(float64(d) * scale)
}

// ChargeRun accounts for n consecutive charges of d under a single
// lock acquisition. The arithmetic is exactly n sequential Charge(d)
// calls — one jitter draw per charge, in order — so a batched executor
// that collapses a per-tuple loop into one ChargeRun lands on a
// byte-identical clock value to the scalar loop it replaced.
// Non-positive d or n are ignored.
func (s *Sim) ChargeRun(d time.Duration, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		scale := s.load
		if scale == 0 {
			scale = 1
		}
		if s.jitter > 0 {
			scale *= 1 + s.jitter*s.rng.NormFloat64()
		}
		if scale < 0.1 {
			scale = 0.1
		}
		s.now += time.Duration(float64(d) * scale)
	}
}

// Advance moves the clock forward by exactly d with no jitter applied.
// It is used to model idle waiting (for example between PLC scan cycles).
func (s *Sim) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
}

// Reset rewinds the clock to zero, preserving the jitter stream.
func (s *Sim) Reset() {
	s.mu.Lock()
	s.now = 0
	s.mu.Unlock()
}

// Real is a wall-clock Clock. Charges are ignored.
type Real struct {
	start time.Time
}

// NewReal returns a real clock starting now.
func NewReal() *Real { return &Real{start: time.Now()} }

// Now returns the elapsed wall-clock time since the clock was created.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Charge is a no-op on a real clock: the work itself consumes time.
func (r *Real) Charge(time.Duration) {}

// ChargeRun is a no-op on a real clock.
func (r *Real) ChargeRun(time.Duration, int) {}

// RunCharger is implemented by clocks that support batched charge runs
// (n identical charges accounted in one call). Sim and Real implement
// it; the executor's lane clock does too.
type RunCharger interface {
	ChargeRun(d time.Duration, n int)
}

// ChargeRun charges n charges of d to c, using the batched path when
// the clock supports it and falling back to n Charge calls otherwise.
// Both paths produce identical clock states for any Clock whose
// ChargeRun honours the RunCharger contract.
func ChargeRun(c Clock, d time.Duration, n int) {
	if rc, ok := c.(RunCharger); ok {
		rc.ChargeRun(d, n)
		return
	}
	for i := 0; i < n; i++ {
		c.Charge(d)
	}
}

// Deadline models the paper's timer interrupt: a point on a Clock after
// which a hard-constrained execution must abort its current stage.
type Deadline struct {
	clock Clock
	at    time.Duration
}

// NewDeadline arms a deadline quota from the clock's current time.
func NewDeadline(c Clock, quota time.Duration) Deadline {
	return Deadline{clock: c, at: c.Now() + quota}
}

// Unarmed returns a deadline that never expires.
func Unarmed() Deadline { return Deadline{} }

// Expired reports whether the deadline has passed. An unarmed deadline
// never expires.
func (d Deadline) Expired() bool {
	return d.clock != nil && d.clock.Now() > d.at
}

// Remaining returns the time left before the deadline, which is negative
// once expired. An unarmed deadline reports a very large remaining time.
func (d Deadline) Remaining() time.Duration {
	if d.clock == nil {
		return 1<<62 - 1
	}
	return d.at - d.clock.Now()
}

// Armed reports whether the deadline is attached to a clock.
func (d Deadline) Armed() bool { return d.clock != nil }
