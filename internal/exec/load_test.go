package exec

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// loadStore builds a jittered store (every charge consumes seeded
// randomness, so an equal clock reading means an equal charge sequence)
// holding a 23-tuple relation at 5 tuples per block — four full blocks
// and a short last one — in memory or reopened from its saved file.
func loadStore(t *testing.T, fileBacked bool) (*storage.Store, *vclock.Sim, *storage.Relation) {
	t.Helper()
	clk := vclock.NewSim(5, 0.05)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	sch, err := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "x", Type: tuple.Float},
	).WithPadding(200)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := st.CreateRelation("mem", sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if err := rel.Append(tuple.Tuple{int64(i), float64(i) / 4, fmt.Sprint("p", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !fileBacked {
		return st, clk, rel
	}
	path := filepath.Join(t.TempDir(), "rel.tcq")
	if err := rel.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fb, err := st.OpenRelationFile("file", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return st, clk, fb
}

// referenceLoad is the literal stage load LoadStage is pinned against:
// one ReadBlock view per sampled block (one tuple of it under SRS)
// appended to the stage with AppendBatch, under the same init charge
// and read-step timing.
func referenceLoad(f *Feed, indices []int) (*tuple.Batch, error) {
	f.env.chargeInit(f.nodeID, OpBase)
	clock := f.env.Clock()
	t0 := clock.Now()
	bf := f.Rel.BlockingFactor()
	stage := tuple.NewBatch(f.Rel.Schema())
	for _, i := range indices {
		bi := i
		if f.srs {
			bi = i / bf
		}
		blk, err := f.Rel.ReadBlock(bi, f.env.deadline)
		if err != nil {
			return nil, err
		}
		if f.srs {
			off := i % bf
			if off >= blk.Len() {
				return nil, fmt.Errorf("tuple index %d out of range", i)
			}
			blk = blk.Slice(off, off+1)
		}
		if err := stage.AppendBatch(blk); err != nil {
			return nil, err
		}
	}
	f.env.record(f.nodeID, OpBase, StepRead, float64(len(indices)), clock.Now()-t0)
	return stage, nil
}

// TestLoadStageMatchesBlockReads pins the range load against the
// per-block view load it replaced: the same rows in the same order, the
// same clock reading (every jitter draw), the same store counters and
// step timings — and the same failures at the same point of the charge
// sequence — for in-memory and file-backed relations, cluster and SRS
// sampling, a short last block, out-of-range indices, and a deadline
// that is already expired (error before any read charge) or expires
// mid-load.
func TestLoadStageMatchesBlockReads(t *testing.T) {
	blockRead := storage.SunProfile().BlockRead
	opInit := storage.SunProfile().OpInit
	cases := []struct {
		name    string
		srs     bool
		indices []int
		quota   time.Duration // 0: unarmed
		fails   bool
	}{
		{name: "cluster", indices: []int{3, 0, 4, 1}},
		{name: "cluster-empty", indices: nil},
		{name: "cluster-short-block-only", indices: []int{4}},
		{name: "cluster-out-of-range", indices: []int{2, 5, 1}, fails: true},
		{name: "cluster-negative", indices: []int{-1}, fails: true},
		{name: "cluster-expired", indices: []int{0, 1}, quota: -time.Second, fails: true},
		{name: "cluster-expires-mid-load", indices: []int{0, 1, 2, 3}, quota: opInit + 5*blockRead/2, fails: true},
		{name: "srs", srs: true, indices: []int{0, 17, 22, 4, 20}},
		{name: "srs-past-short-block", srs: true, indices: []int{7, 23}, fails: true}, // block 4 exists, offset 3 does not
		{name: "srs-block-out-of-range", srs: true, indices: []int{7, 25}, fails: true},
		{name: "srs-expired", srs: true, indices: []int{3}, quota: -time.Second, fails: true},
	}
	for _, fileBacked := range []bool{false, true} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/file=%v", c.name, fileBacked), func(t *testing.T) {
				type outcome struct {
					rows     []tuple.Tuple
					failed   bool
					aborted  bool
					clock    time.Duration
					counters storage.Counters
					timings  []StepTiming
				}
				run := func(load func(f *Feed) (*tuple.Batch, error)) outcome {
					st, clk, rel := loadStore(t, fileBacked)
					env := NewEnv(st)
					f := NewFeed(env, rel)
					f.SetSRS(c.srs)
					if c.quota != 0 {
						env.SetDeadline(vclock.NewDeadline(clk, c.quota))
					}
					stage, err := load(f)
					o := outcome{failed: err != nil, aborted: IsAborted(err),
						clock: clk.Now(), counters: st.Counters(), timings: env.TakeTimings()}
					if err == nil {
						o.rows = stage.Rows()
					}
					return o
				}
				want := run(func(f *Feed) (*tuple.Batch, error) { return referenceLoad(f, c.indices) })
				got := run(func(f *Feed) (*tuple.Batch, error) {
					if err := f.LoadStage(c.indices); err != nil {
						return nil, err
					}
					return f.stages[len(f.stages)-1], nil
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("range load diverges from ReadBlock+AppendBatch:\n got: %+v\nwant: %+v", got, want)
				}
				if want.failed != c.fails {
					t.Errorf("reference load failed = %v, case expects %v", want.failed, c.fails)
				}
				if c.quota < 0 && (got.counters != storage.Counters{} || !got.aborted) {
					t.Errorf("expired deadline: aborted=%v counters=%+v, want an abort before any read charge", got.aborted, got.counters)
				}
			})
		}
	}
}
