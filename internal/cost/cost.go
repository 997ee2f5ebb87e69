// Package cost implements the adaptive time-cost formulas of the
// paper's Section 4. The time cost of a stage is the sum over RA
// operators of per-step costs (write, sort, merge, scan, output, fixed
// init), each a coefficient times a unit measure (tuples, n·log n,
// pages ≈ tuples / blocking factor). Coefficients start at "designer
// defaults" and are ADJUSTED AT RUN TIME from observed step durations —
// "during the execution of the operation, we record the actual amount
// of time spent on each step and ... dynamically adjust the
// coefficients of the cost functions".
//
// The model also evaluates QCOST(f, SEL⁺): the predicted duration of the
// next stage given a candidate sample fraction f and per-operator
// inflated selectivities (supplied by internal/timectrl), which
// Sample-Size-Determine (Fig. 3.4) binary-searches against the
// remaining quota.
package cost

import (
	"math"
	"slices"
	"time"

	"tcq/internal/exec"
	"tcq/internal/storage"
)

// fit accumulates observed (units, duration) pairs; the fitted
// coefficient is the ratio of sums Σt/Σu, a units-weighted average that
// is robust to per-stage jitter.
type fit struct {
	units   float64
	seconds float64
}

// Operator and step kinds are dense ints; these size the tables.
const (
	numOps   = int(exec.OpProject) + 1
	numSteps = int(exec.StepInit) + 1
)

// Coefficients is a per-(operator, step) table of seconds-per-unit
// values, used both for designer defaults and for describing the true
// simulated machine in tests. It is a value: assignment copies it.
type Coefficients [numOps][numSteps]float64

// Get returns the coefficient for (op, step), or 0 when absent.
func (c Coefficients) Get(op exec.OpKind, step exec.StepKind) float64 {
	if uint(op) >= uint(numOps) || uint(step) >= uint(numSteps) {
		return 0
	}
	return c[op][step]
}

// Scale returns a copy with every coefficient multiplied by k (used by
// tests and the adaptive-cost ablation to start the model off-true).
func (c Coefficients) Scale(k float64) Coefficients {
	for op := range c {
		for step := range c[op] {
			c[op][step] *= k
		}
	}
	return c
}

// TrueCoefficients derives the exact per-unit costs implied by a
// storage.CostProfile and blocking factor — what a perfectly calibrated
// model would converge to on the simulated machine.
func TrueCoefficients(p storage.CostProfile, blockingFactor int) Coefficients {
	if blockingFactor < 1 {
		blockingFactor = 1
	}
	perTupleWrite := p.TupleWrite.Seconds() + p.PageWrite.Seconds()/float64(blockingFactor)
	return Coefficients{
		exec.OpBase: {
			exec.StepRead: p.BlockRead.Seconds(),
			exec.StepInit: p.OpInit.Seconds(),
		},
		exec.OpSelect: {
			exec.StepScan:   p.TupleCheck.Seconds(), // × predicate comparisons at predict time
			exec.StepOutput: perTupleWrite,
			exec.StepInit:   p.OpInit.Seconds(),
		},
		exec.OpJoin: {
			exec.StepWrite:  perTupleWrite,
			exec.StepSort:   p.TupleCompare.Seconds(),
			exec.StepMerge:  p.TupleCompare.Seconds(),
			exec.StepOutput: perTupleWrite,
			exec.StepInit:   p.OpInit.Seconds(),
		},
		exec.OpIntersect: {
			exec.StepWrite:  perTupleWrite,
			exec.StepSort:   p.TupleCompare.Seconds(),
			exec.StepMerge:  p.TupleCompare.Seconds(),
			exec.StepOutput: perTupleWrite,
			exec.StepInit:   p.OpInit.Seconds(),
		},
		exec.OpProject: {
			exec.StepWrite:  perTupleWrite,
			exec.StepSort:   p.TupleCompare.Seconds(),
			exec.StepScan:   p.TupleCheck.Seconds(),
			exec.StepOutput: perTupleWrite,
			exec.StepInit:   p.OpInit.Seconds(),
		},
	}
}

// DefaultCoefficients returns the "designer" initial values the paper
// describes (initialised from experiments with the largest possible
// tuples, a two-comparison selection formula and two join attributes) —
// deliberately conservative relative to the true machine, so the
// adaptive fit has real work to do.
func DefaultCoefficients(p storage.CostProfile, blockingFactor int) Coefficients {
	c := TrueCoefficients(p, blockingFactor)
	// Largest tuples => fewer tuples per page, costlier writes; two
	// comparisons / join attributes => costlier checks and merges.
	c[exec.OpSelect][exec.StepScan] *= 2
	c[exec.OpSelect][exec.StepOutput] *= 1.6
	c[exec.OpJoin][exec.StepMerge] *= 1.8
	c[exec.OpJoin][exec.StepWrite] *= 1.5
	c[exec.OpIntersect][exec.StepMerge] *= 1.8
	c[exec.OpIntersect][exec.StepWrite] *= 1.5
	c[exec.OpProject][exec.StepScan] *= 1.7
	c[exec.OpProject][exec.StepWrite] *= 1.5
	return c
}

// Model is the adaptive cost model of one query session.
type Model struct {
	defaults Coefficients
	// fits holds one fit per (node, step), node-major; it grows to the
	// largest node id observed.
	fits     []fit
	adaptive bool
	// seenBase is PredictStage's scratch: the base relations already
	// charged in the current evaluation. Reused across calls so a probe
	// of the planner's binary search allocates nothing.
	seenBase []string
}

// NewModel creates a cost model starting from the given default
// coefficients. adaptive enables run-time coefficient adjustment; with
// adaptive=false the model is the paper's "fixed form" ablation.
func NewModel(defaults Coefficients, adaptive bool) *Model {
	m := new(Model)
	m.Reset(defaults, adaptive)
	return m
}

// Reset returns the model to NewModel's state, forgetting every fit but
// keeping its memory — how a query reuses the model of the one before.
func (m *Model) Reset(defaults Coefficients, adaptive bool) {
	m.defaults, m.adaptive = defaults, adaptive
	m.fits = m.fits[:0]
}

// Observe folds a stage's recorded step timings into the per-node fits
// (no-op when the model is non-adaptive).
func (m *Model) Observe(timings []exec.StepTiming) {
	if !m.adaptive {
		return
	}
	for _, t := range timings {
		if t.Units <= 0 {
			continue
		}
		i := t.NodeID*numSteps + int(t.Step)
		if i >= len(m.fits) {
			m.fits = append(m.fits, make([]fit, (t.NodeID+1)*numSteps-len(m.fits))...)
		}
		m.fits[i].units += t.Units
		m.fits[i].seconds += t.Actual.Seconds()
	}
}

// Coef returns the current coefficient (seconds per unit) for a node's
// step: the fitted ratio when observations exist, the designer default
// otherwise.
func (m *Model) Coef(nodeID int, op exec.OpKind, step exec.StepKind) float64 {
	if i := nodeID*numSteps + int(step); i < len(m.fits) && m.fits[i].units > 0 {
		return m.fits[i].seconds / m.fits[i].units
	}
	return m.defaults[op][step]
}

// Adaptive reports whether run-time adjustment is enabled.
func (m *Model) Adaptive() bool { return m.adaptive }

// SelPlusFunc supplies the inflated per-operator selectivity sel⁺ for a
// candidate stage: given the node and the number of NEW points its
// point space would cover this stage, return the selectivity to plan
// with (see timectrl.ComputeSelPlus; Fig. 3.5).
type SelPlusFunc func(node *exec.NodeInfo, newPoints float64) float64

// Prediction is the outcome of evaluating QCOST for one candidate f.
type Prediction struct {
	Duration time.Duration
}

// PredictStage evaluates QCOST(f, SEL⁺): the predicted duration of the
// next stage over the given term trees, where each base relation
// contributes a fresh sample fraction f of its blocks. Base relations
// appearing in several terms (or twice in one term) are read once; the
// read cost is charged on first encounter.
func (m *Model) PredictStage(roots []*exec.NodeInfo, f float64, selPlus SelPlusFunc) Prediction {
	seconds := 0.0
	m.seenBase = m.seenBase[:0]
	for _, root := range roots {
		_, s := m.predictNode(root, f, selPlus)
		seconds += s
	}
	return Prediction{Duration: time.Duration(seconds * float64(time.Second))}
}

// predictNode returns (predicted new output tuples, predicted seconds)
// for one node and its subtree.
func (m *Model) predictNode(n *exec.NodeInfo, f float64, selPlus SelPlusFunc) (float64, float64) {
	switch n.Op {
	case exec.OpBase:
		newTuples := f * float64(n.BaseTuples)
		// Read-step units: blocks under cluster sampling, tuples under
		// SRS (each random tuple costs a block read).
		readUnits := f * float64(n.BaseBlocks)
		if n.SRS {
			readUnits = newTuples
		}
		sec := 0.0
		if !slices.Contains(m.seenBase, n.BaseName) {
			m.seenBase = append(m.seenBase, n.BaseName)
			sec = m.Coef(n.ID, exec.OpBase, exec.StepRead)*readUnits +
				m.Coef(n.ID, exec.OpBase, exec.StepInit)
		}
		return newTuples, sec

	case exec.OpSelect:
		in, sec := m.predictNode(n.Children[0], f, selPlus)
		sel := selPlus(n, in)
		out := sel * in
		comps := float64(n.PredComparisons)
		if comps < 1 {
			comps = 1
		}
		sec += m.Coef(n.ID, exec.OpSelect, exec.StepScan)*in*comps +
			m.Coef(n.ID, exec.OpSelect, exec.StepOutput)*out +
			m.Coef(n.ID, exec.OpSelect, exec.StepInit)
		return out, sec

	case exec.OpProject:
		in, sec := m.predictNode(n.Children[0], f, selPlus)
		sel := selPlus(n, in)
		out := sel * in
		sec += m.Coef(n.ID, exec.OpProject, exec.StepWrite)*in +
			m.Coef(n.ID, exec.OpProject, exec.StepSort)*nLogN(in) +
			m.Coef(n.ID, exec.OpProject, exec.StepScan)*in +
			m.Coef(n.ID, exec.OpProject, exec.StepOutput)*out +
			m.Coef(n.ID, exec.OpProject, exec.StepInit)
		return out, sec

	case exec.OpJoin, exec.OpIntersect:
		newL, secL := m.predictNode(n.Children[0], f, selPlus)
		newR, secR := m.predictNode(n.Children[1], f, selPlus)
		sec := secL + secR
		cumL := float64(n.Children[0].CumOut)
		cumR := float64(n.Children[1].CumOut)

		var newPoints, mergeUnits float64
		if n.Plan == exec.PartialFulfillment {
			newPoints = newL * newR
			mergeUnits = newL + newR
		} else {
			newPoints = (cumL+newL)*(cumR+newR) - cumL*cumR
			// Fig. 4.5: new-left run joins every right run (s previous
			// plus the new one), previous left runs join the new right
			// run: Σ sizes = (s+1)·newL + cumR + newR + cumL + s·newR.
			s := float64(n.NumRuns)
			mergeUnits = (s+1)*newL + cumR + newR + cumL + s*newR
		}
		sel := selPlus(n, newPoints)
		out := sel * newPoints
		sec += m.Coef(n.ID, n.Op, exec.StepWrite)*(newL+newR) +
			m.Coef(n.ID, n.Op, exec.StepSort)*(nLogN(newL)+nLogN(newR)) +
			m.Coef(n.ID, n.Op, exec.StepMerge)*mergeUnits +
			m.Coef(n.ID, n.Op, exec.StepOutput)*out +
			m.Coef(n.ID, n.Op, exec.StepInit)
		return out, sec

	default:
		return 0, 0
	}
}

// nLogN mirrors the executor's sort unit measure.
func nLogN(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return n * math.Log2(n)
}
