//go:build !race

package exec

import (
	"path/filepath"
	"testing"

	"tcq/internal/scratch"
	"tcq/internal/sortx"
	"tcq/internal/storage"
	"tcq/internal/vclock"
)

// Allocation guards for the stage data path (the race detector's
// instrumentation allocates, hence the build tag). They turn the
// benchmark's allocs_per_query into something `go test` catches.

// TestLoadStageAllocsIndependentOfBlocks: on a session whose arena is
// warm, a stage load allocates the feed and its environment — nothing
// for the stage batch, nothing per sampled block.
func TestLoadStageAllocsIndependentOfBlocks(t *testing.T) {
	st, _ := buildBoundaryStore(t, 3000, true) // 47 blocks of 64
	rel, err := st.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	loadAllocs := func(nBlocks int, srs bool) float64 {
		indices := make([]int, nBlocks)
		for i := range indices {
			indices[i] = i
		}
		sess := st.Session(nil)
		return testing.AllocsPerRun(20, func() {
			f := NewFeed(NewEnv(sess), rel)
			f.SetSRS(srs)
			if err := f.LoadStage(indices); err != nil {
				t.Fatal(err)
			}
			sess.MergeCounters() // ends the query: the arena goes back to the pool
		})
	}
	for _, srs := range []bool{false, true} {
		few, many := loadAllocs(2, srs), loadAllocs(40, srs)
		if many > few {
			t.Errorf("srs=%v: LoadStage allocates %v times for 40 blocks, %v for 2 — it must not grow with the block count", srs, many, few)
		}
		if many > 2 {
			t.Errorf("srs=%v: a warm LoadStage allocates %v times, want <= 2 (feed and environment)", srs, many)
		}
	}
}

// TestLoadStageFileBackedBlockAllocs: a block read on demand from a file
// is decoded into a heap batch (ReadBlock hands out views of it) of
// exactly the block's size — per block the read buffer, the batch header
// (two) and one allocation per column, plus two per decoded row (the
// tuple and its boxed id; a = id % 7 boxes for free) — and no column is
// regrown while the rows are appended.
func TestLoadStageFileBackedBlockAllocs(t *testing.T) {
	mem, _ := buildBoundaryStore(t, 3000, true) // 47 blocks of 64
	src, err := mem.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.tcq")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(vclock.NewSim(3, 0.01), storage.SunProfile(), storage.DefaultBlockSize)
	rel, err := st.OpenRelationFile("r", path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	loadAllocs := func(nBlocks int) float64 {
		indices := make([]int, nBlocks)
		for i := range indices {
			indices[i] = 4 + i // ids from 256 up: every id boxed
		}
		sess := st.Session(nil)
		return testing.AllocsPerRun(20, func() {
			if err := NewFeed(NewEnv(sess), rel).LoadStage(indices); err != nil {
				t.Fatal(err)
			}
			sess.MergeCounters()
		})
	}
	bf, ncols := rel.BlockingFactor(), rel.Schema().NumCols()
	perBlock := (loadAllocs(40) - loadAllocs(2)) / 38
	if want := float64(1 + 2 + ncols + 2*bf); perBlock > want {
		t.Errorf("a file-backed block costs %v allocations, want <= %v", perBlock, want)
	}
}

// TestSortRunAllocs: on a warm arena, sorting one side's stage run
// allocates nothing — key bytes and headers, the sort's (prefix, row)
// pairs, the merge's output and run heads, and the three gathered
// result slices all come from the arena — whatever the run length, on
// both sides of sortx.DefaultRunSize.
func TestSortRunAllocs(t *testing.T) {
	for _, n := range []int{140, 400, 3*sortx.DefaultRunSize + 7} {
		_, b, _ := normKeyFixture(t, n)
		mem := new(scratch.Arena)
		run, _ := sortRun(mem, b, []int{1, 0}, nil) // warm
		allocs := testing.AllocsPerRun(20, func() {
			mem.Reset()
			run, _ = sortRun(mem, b, []int{1, 0}, nil)
		})
		if run.len() != n {
			t.Fatalf("sorted %d of %d rows", run.len(), n)
		}
		if allocs != 0 {
			t.Errorf("sortRun over %d rows on a warm arena: %v allocs, want 0", n, allocs)
		}
	}
}
