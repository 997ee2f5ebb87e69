// Package sampling implements the sampling plans of the paper: cluster
// sampling with disk blocks as sample units (the implemented default)
// and simple random sampling of points (used by the variance
// approximation and the estimator tests).
//
// A BlockSampler draws blocks without replacement from one relation,
// stage by stage; a SampleSet tracks, per relation, what every stage
// drew, which is exactly the SAMPLE-SET / NEW-SAMPLE-SET bookkeeping of
// the paper's Figure 3.1. Point-space arithmetic for the cluster plan
// (space blocks, evaluated points under full or partial fulfillment)
// lives here too.
package sampling

import (
	"fmt"
	"math/rand"

	"tcq/internal/scratch"
)

// BlockSampler draws disk-block indices without replacement from a
// relation of D blocks. The draw order is a seeded random permutation,
// materialised lazily with a partial Fisher–Yates shuffle so that huge
// relations do not cost O(D) memory until sampled.
type BlockSampler struct {
	d     int
	rng   *rand.Rand
	mem   *slabs // where the table, the drawn lists and the stage records live
	next  int    // number of indices already drawn
	fixed []int  // prebuilt permutation (catalog warm path); nil when live

	// Sparse Fisher–Yates state: the positions whose value differs from
	// their index, in a pointer-free open-addressed table (linear
	// probing, power-of-two size, load ≤ ½). Only positions at or past
	// the draw cursor are ever read, so entries the cursor has passed
	// are dead: they are never deleted, just dropped when the table
	// grows.
	slots []slot
	used  int // occupied slots, dead ones included
}

// slot is one displaced position: key is the position plus one (zero
// marks an empty slot), val the index currently stored there.
type slot struct{ key, val int }

// slabs is a sampler's memory: a query arena's (UseScratch) or, for a
// sampler outside a query, its own three slabs and nothing more.
type slabs struct {
	slots  scratch.Slab[slot]
	stages scratch.Slab[StageDraw]
	drawn  scratch.Slab[int]
}

func (m *slabs) Reset() {
	m.slots.Reset(slot{key: -0x5A5A5A5B, val: -0x5A5A5A5B})
	m.stages.Reset(StageDraw{Tuples: -0x5A5A5A5B})
	m.drawn.Reset(-0x5A5A5A5B)
}

func (b *BlockSampler) slabs() *slabs {
	if b.mem == nil {
		b.mem = new(slabs)
	}
	return b.mem
}

// NewBlockSampler creates a sampler over block indices [0, d).
func NewBlockSampler(d int, rng *rand.Rand) *BlockSampler {
	return &BlockSampler{d: d, rng: rng}
}

// Remaining returns how many blocks have not been drawn yet.
func (b *BlockSampler) Remaining() int { return b.d - b.next }

// Drawn returns how many blocks have been drawn so far.
func (b *BlockSampler) Drawn() int { return b.next }

// Draw returns the next k undrawn block indices, uniformly at random
// without replacement. It returns fewer than k (possibly zero) when the
// relation is exhausted.
func (b *BlockSampler) Draw(k int) []int {
	k = min(k, b.Remaining())
	if k <= 0 {
		return nil
	}
	out := b.slabs().drawn.Alloc(k)[:0]
	if b.fixed != nil {
		out = append(out, b.fixed[b.next:b.next+k]...)
		b.next += k
		return out
	}
	b.reserve(k)
	for i := 0; i < k; i++ {
		// Swap positions next and j, emit what lands on next. The value
		// is not written back to next: the cursor moves past it.
		j := b.next + b.rng.Intn(b.d-b.next)
		v := b.next
		if s := b.find(b.next); s.key != 0 {
			v = s.val
		}
		if j != b.next {
			s := b.find(j)
			if s.key == 0 {
				s.key, s.val = j+1, j
				b.used++
			}
			v, s.val = s.val, v
		}
		out = append(out, v)
		b.next++
	}
	return out
}

// find returns the slot holding position pos, or the empty slot where
// it belongs.
func (b *BlockSampler) find(pos int) *slot {
	mask := len(b.slots) - 1
	for h := int(uint64(pos)*0x9E3779B97F4A7C15>>32) & mask; ; h = (h + 1) & mask {
		if s := &b.slots[h]; s.key == 0 || s.key == pos+1 {
			return s
		}
	}
}

// reserve makes room for k more displaced positions at load ≤ ½ (each
// draw displaces at most one), rehashing the live entries into a larger
// table when needed.
func (b *BlockSampler) reserve(k int) {
	if 2*(b.used+k) <= len(b.slots) {
		return
	}
	size := 8
	for size < 2*(b.used+k) {
		size *= 2
	}
	old := b.slots
	b.slots, b.used = b.slabs().slots.Alloc(size), 0
	clear(b.slots)
	for _, s := range old {
		if s.key > b.next {
			*b.find(s.key - 1) = s
			b.used++
		}
	}
}

// StageDraw records one stage's sample from one relation.
type StageDraw struct {
	Blocks []int // block indices drawn this stage
	Tuples int   // tuples contained in those blocks (filled by the executor)
}

// RelationSample tracks the cumulative sample of one relation across
// stages.
type RelationSample struct {
	Name    string
	DTotal  int   // total disk blocks in the relation
	NTotal  int64 // total tuples in the relation
	Stages  []StageDraw
	sampler BlockSampler
}

// NewRelationSample builds the bookkeeping for one relation.
func NewRelationSample(name string, dTotal int, nTotal int64, rng *rand.Rand) *RelationSample {
	return &RelationSample{
		Name:    name,
		DTotal:  dTotal,
		NTotal:  nTotal,
		sampler: BlockSampler{d: dTotal, rng: rng},
	}
}

// NewRelationSampleFromPerm builds the bookkeeping for one relation
// whose draw order replays a prebuilt permutation of block indices,
// consuming no RNG: the sample-catalog warm path — the permutation was
// drawn (seeded) at build time.
func NewRelationSampleFromPerm(name string, perm []int, nTotal int64) *RelationSample {
	return &RelationSample{
		Name:    name,
		DTotal:  len(perm),
		NTotal:  nTotal,
		sampler: BlockSampler{d: len(perm), fixed: perm},
	}
}

// UseScratch makes the sample take its memory — stage records, drawn
// lists, the sampler's table — from a query's arena instead of its own
// slabs, for that query's lifetime; call it before the first Draw.
func (r *RelationSample) UseScratch(a *scratch.Arena) { r.sampler.mem = scratch.Of[slabs](a) }

// Draw samples k more blocks for a new stage and records them. The
// returned slice is the NEW-SAMPLE-SET of Figure 3.1 for this relation.
func (r *RelationSample) Draw(k int) []int {
	blocks := r.sampler.Draw(k)
	r.Stages = append(r.sampler.slabs().stages.Grow(r.Stages, 1), StageDraw{Blocks: blocks})
	return blocks
}

// SetStageTuples records how many tuples stage i's blocks contained.
func (r *RelationSample) SetStageTuples(stage, tuples int) error {
	if stage < 0 || stage >= len(r.Stages) {
		return fmt.Errorf("sampling: stage %d out of range", stage)
	}
	r.Stages[stage].Tuples = tuples
	return nil
}

// CumBlocks returns the number of blocks drawn in stages [0, upto].
// Pass upto = len(Stages)-1 (or simply a large number) for the total.
func (r *RelationSample) CumBlocks(upto int) int {
	total := 0
	for i, s := range r.Stages {
		if i > upto {
			break
		}
		total += len(s.Blocks)
	}
	return total
}

// CumTuples returns the number of tuples drawn in stages [0, upto].
func (r *RelationSample) CumTuples(upto int) int64 {
	var total int64
	for i, s := range r.Stages {
		if i > upto {
			break
		}
		total += int64(s.Tuples)
	}
	return total
}

// Remaining returns how many blocks are still undrawn.
func (r *RelationSample) Remaining() int { return r.sampler.Remaining() }

// Fraction returns the cumulative sample fraction f = d/D.
func (r *RelationSample) Fraction() float64 {
	if r.DTotal == 0 {
		return 0
	}
	return float64(r.CumBlocks(len(r.Stages))) / float64(r.DTotal)
}

// PointSpace describes the point space of a Select-Join-Intersect
// expression over n operand relations (Section 2 of the paper): each
// relation is one dimension; the space has Π|r_i| points and Π D_i
// space blocks.
type PointSpace struct {
	TupleCounts []int64 // |r_i| per dimension
	BlockCounts []int   // D_i per dimension
}

// TotalPoints returns Π |r_i| as float64 (counts overflow int64 for
// multi-way joins of large relations).
func (p PointSpace) TotalPoints() float64 {
	total := 1.0
	for _, n := range p.TupleCounts {
		total *= float64(n)
	}
	return total
}

// TotalSpaceBlocks returns Π D_i as float64.
func (p PointSpace) TotalSpaceBlocks() float64 {
	total := 1.0
	for _, d := range p.BlockCounts {
		total *= float64(d)
	}
	return total
}

// FullFulfillmentPoints returns the number of points covered after each
// relation has contributed cumTuples[i] sample tuples under the full
// fulfillment plan (every cross combination of sampled tuples).
func FullFulfillmentPoints(cumTuples []int64) float64 {
	total := 1.0
	for _, n := range cumTuples {
		total *= float64(n)
	}
	return total
}

// PartialFulfillmentPoints returns the points covered under the partial
// fulfillment plan, where only same-stage samples are combined:
// Σ_stages Π_i tuples[i][stage].
func PartialFulfillmentPoints(stageTuples [][]int64) float64 {
	if len(stageTuples) == 0 {
		return 0
	}
	nStages := len(stageTuples[0])
	total := 0.0
	for s := 0; s < nStages; s++ {
		prod := 1.0
		for _, rel := range stageTuples {
			if s >= len(rel) {
				return total
			}
			prod *= float64(rel[s])
		}
		total += prod
	}
	return total
}

// NewStagePoints returns how many new points stage s (0-based) covers
// under full fulfillment, given per-relation cumulative tuple counts
// before the stage (prev) and the stage's new tuples (cur):
//
//	Π(prev_i + cur_i) − Π prev_i
//
// which for two relations reduces to the paper's
// n1s·n2s + N1,s-1·n2s + n1s·N2,s-1 (Section 4).
func NewStagePoints(prev, cur []int64) float64 {
	after := 1.0
	before := 1.0
	for i := range prev {
		after *= float64(prev[i] + cur[i])
		before *= float64(prev[i])
	}
	return after - before
}

// SampleInts draws m distinct integers uniformly from [0, n) using a
// sparse Fisher–Yates shuffle; order is the draw order.
func SampleInts(rng *rand.Rand, n, m int) []int {
	return NewBlockSampler(n, rng).Draw(m)
}
