package sampling

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBlockSamplerDrawsWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewBlockSampler(100, rng)
	seen := map[int]bool{}
	total := 0
	for _, k := range []int{10, 25, 65} {
		blocks := s.Draw(k)
		if len(blocks) != k {
			t.Fatalf("drew %d, want %d", len(blocks), k)
		}
		for _, b := range blocks {
			if b < 0 || b >= 100 {
				t.Fatalf("block %d out of range", b)
			}
			if seen[b] {
				t.Fatalf("block %d drawn twice", b)
			}
			seen[b] = true
		}
		total += k
		if s.Drawn() != total || s.Remaining() != 100-total {
			t.Fatalf("counters wrong after %d draws", total)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("exhausted sampler saw %d distinct blocks", len(seen))
	}
	if extra := s.Draw(5); extra != nil {
		t.Errorf("draw from exhausted sampler = %v", extra)
	}
}

func TestBlockSamplerPartialLastDraw(t *testing.T) {
	s := NewBlockSampler(7, rand.New(rand.NewSource(2)))
	first := s.Draw(5)
	rest := s.Draw(10)
	if len(first) != 5 || len(rest) != 2 {
		t.Errorf("draw sizes %d, %d", len(first), len(rest))
	}
}

func TestBlockSamplerZeroAndNegative(t *testing.T) {
	s := NewBlockSampler(5, rand.New(rand.NewSource(3)))
	if s.Draw(0) != nil || s.Draw(-2) != nil {
		t.Error("non-positive draws should return nil")
	}
	empty := NewBlockSampler(0, rand.New(rand.NewSource(3)))
	if empty.Draw(3) != nil {
		t.Error("empty sampler should return nil")
	}
}

func TestBlockSamplerUniformity(t *testing.T) {
	// Draw 1 of 10 many times; each block should appear ~10% of the time.
	counts := make([]int, 10)
	const trials = 20000
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < trials; i++ {
		s := NewBlockSampler(10, rng)
		counts[s.Draw(1)[0]]++
	}
	for b, c := range counts {
		p := float64(c) / trials
		if math.Abs(p-0.1) > 0.01 {
			t.Errorf("block %d drawn with frequency %.3f, want ~0.1", b, p)
		}
	}
}

func TestBlockSamplerAllSubsetsEquallyLikely(t *testing.T) {
	// For D=4 draw 2: all C(4,2)=6 unordered pairs should be uniform.
	counts := map[[2]int]int{}
	const trials = 30000
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < trials; i++ {
		s := NewBlockSampler(4, rng)
		d := s.Draw(2)
		sort.Ints(d)
		counts[[2]int{d[0], d[1]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct pairs, want 6", len(counts))
	}
	for pair, c := range counts {
		p := float64(c) / trials
		if math.Abs(p-1.0/6) > 0.01 {
			t.Errorf("pair %v frequency %.3f, want ~1/6", pair, p)
		}
	}
}

func TestRelationSampleBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rs := NewRelationSample("r", 2000, 10000, rng)
	b1 := rs.Draw(40)
	b2 := rs.Draw(60)
	if len(b1) != 40 || len(b2) != 60 {
		t.Fatalf("draw sizes %d, %d", len(b1), len(b2))
	}
	if err := rs.SetStageTuples(0, 200); err != nil {
		t.Fatal(err)
	}
	if err := rs.SetStageTuples(1, 300); err != nil {
		t.Fatal(err)
	}
	if err := rs.SetStageTuples(5, 1); err == nil {
		t.Error("out-of-range stage should error")
	}
	if rs.CumBlocks(0) != 40 || rs.CumBlocks(1) != 100 || rs.CumBlocks(99) != 100 {
		t.Errorf("CumBlocks: %d, %d", rs.CumBlocks(0), rs.CumBlocks(1))
	}
	if rs.CumTuples(0) != 200 || rs.CumTuples(1) != 500 {
		t.Errorf("CumTuples: %d, %d", rs.CumTuples(0), rs.CumTuples(1))
	}
	if rs.Remaining() != 1900 {
		t.Errorf("Remaining = %d", rs.Remaining())
	}
	if math.Abs(rs.Fraction()-0.05) > 1e-12 {
		t.Errorf("Fraction = %g, want 0.05", rs.Fraction())
	}
}

func TestRelationSampleFractionEmptyRelation(t *testing.T) {
	rs := NewRelationSample("r", 0, 0, rand.New(rand.NewSource(1)))
	if rs.Fraction() != 0 {
		t.Error("empty relation fraction should be 0")
	}
}

func TestPointSpaceArithmetic(t *testing.T) {
	// The paper's setup: two relations of 10,000 tuples / 2,000 blocks.
	ps := PointSpace{TupleCounts: []int64{10000, 10000}, BlockCounts: []int{2000, 2000}}
	if ps.TotalPoints() != 1e8 {
		t.Errorf("TotalPoints = %g", ps.TotalPoints())
	}
	if ps.TotalSpaceBlocks() != 4e6 {
		t.Errorf("TotalSpaceBlocks = %g", ps.TotalSpaceBlocks())
	}
}

func TestFullFulfillmentPoints(t *testing.T) {
	if got := FullFulfillmentPoints([]int64{200, 300}); got != 60000 {
		t.Errorf("FullFulfillmentPoints = %g", got)
	}
	if got := FullFulfillmentPoints([]int64{5}); got != 5 {
		t.Errorf("single relation = %g", got)
	}
	if got := FullFulfillmentPoints(nil); got != 1 {
		t.Errorf("empty = %g (degenerate product)", got)
	}
}

func TestPartialFulfillmentPoints(t *testing.T) {
	// Two relations, two stages: stage products summed.
	stage := [][]int64{{10, 20}, {30, 40}}
	if got := PartialFulfillmentPoints(stage); got != 10*30+20*40 {
		t.Errorf("partial = %g", got)
	}
	if got := PartialFulfillmentPoints(nil); got != 0 {
		t.Errorf("empty = %g", got)
	}
	// Partial never exceeds full.
	full := FullFulfillmentPoints([]int64{30, 70})
	if PartialFulfillmentPoints(stage) > full {
		t.Error("partial fulfillment covered more points than full")
	}
}

func TestNewStagePointsMatchesPaperFormula(t *testing.T) {
	// Two relations: formula n1s·n2s + N1·n2s + n1s·N2 from Section 4.
	prev := []int64{200, 150}
	cur := []int64{50, 60}
	want := float64(50*60 + 200*60 + 50*150)
	if got := NewStagePoints(prev, cur); got != want {
		t.Errorf("NewStagePoints = %g, want %g", got, want)
	}
	// First stage: prev all zero => Π cur.
	if got := NewStagePoints([]int64{0, 0}, []int64{10, 20}); got != 200 {
		t.Errorf("first stage = %g", got)
	}
}

func TestNewStagePointsTelescopes(t *testing.T) {
	// Summing NewStagePoints over stages must equal FullFulfillmentPoints.
	stages := [][]int64{{10, 5}, {20, 15}, {7, 0}, {3, 9}}
	prev := []int64{0, 0}
	var total float64
	for _, st := range stages {
		total += NewStagePoints(prev, st)
		for i := range prev {
			prev[i] += st[i]
		}
	}
	if want := FullFulfillmentPoints(prev); math.Abs(total-want) > 1e-9 {
		t.Errorf("telescoped %g, want %g", total, want)
	}
}

func TestSampleInts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := SampleInts(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", got)
		}
		seen[v] = true
	}
	if len(SampleInts(rng, 3, 10)) != 3 {
		t.Error("oversample should clamp to n")
	}
	if SampleInts(rng, 5, 0) != nil {
		t.Error("zero sample should be nil")
	}
}

// mapSampler is the sparse Fisher–Yates shuffle over a Go map that
// BlockSampler's open-addressed table replaced — kept here as the
// oracle: the table must consume the RNG identically and return the
// same indices in the same order.
type mapSampler struct {
	d, next int
	rng     *rand.Rand
	perm    map[int]int
}

func (m *mapSampler) draw(k int) []int {
	if k > m.d-m.next {
		k = m.d - m.next
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := m.next + m.rng.Intn(m.d-m.next)
		vj, ok := m.perm[j]
		if !ok {
			vj = j
		}
		vn, ok := m.perm[m.next]
		if !ok {
			vn = m.next
		}
		m.perm[j] = vn
		m.perm[m.next] = vj
		out = append(out, vj)
		m.next++
	}
	return out
}

// TestBlockSamplerMatchesMapOracle draws random schedules (d, k₁, k₂, …)
// through to census — so the table grows, rehashes and drops dead
// entries many times — and demands draw-for-draw equality with the map
// shuffle, including the RNG position afterwards.
func TestBlockSamplerMatchesMapOracle(t *testing.T) {
	sched := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		d := 1 + sched.Intn(3000)
		if trial%10 == 0 {
			d = 1 + sched.Intn(6)
		}
		seed := sched.Int63()
		rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := NewBlockSampler(d, rngA)
		want := &mapSampler{d: d, rng: rngB, perm: map[int]int{}}
		for got.Remaining() > 0 {
			k := sched.Intn(1 + d/(1+sched.Intn(8)))
			if sched.Intn(6) == 0 {
				k = got.Remaining() + sched.Intn(3) // through (and past) census
			}
			a, b := got.Draw(k), want.draw(k)
			if !slices.Equal(a, b) {
				t.Fatalf("trial %d d=%d after %d drawn, Draw(%d): table %v, map %v", trial, d, want.next-len(b), k, a, b)
			}
		}
		if got.Draw(1) != nil {
			t.Fatalf("trial %d: draw past census returned blocks", trial)
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("trial %d: RNG streams diverged", trial)
		}
	}
}
