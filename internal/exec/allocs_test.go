//go:build !race

package exec

import "testing"

// Allocation guards for the stage data path (the race detector's
// instrumentation allocates, hence the build tag). They turn the
// benchmark's allocs_per_query into something `go test ./...` catches.

// TestLoadStageAllocsIndependentOfBlocks: a stage load allocates its
// pre-sized stage batch and bookkeeping — nothing per sampled block.
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
		return testing.AllocsPerRun(20, func() {
			f := NewFeed(NewEnv(st), rel)
			f.SetSRS(srs)
			if err := f.LoadStage(indices); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, srs := range []bool{false, true} {
		few, many := loadAllocs(2, srs), loadAllocs(40, srs)
		if many > few {
			t.Errorf("srs=%v: LoadStage allocates %v times for 40 blocks, %v for 2 — it must not grow with the block count", srs, many, few)
		}
	}
}

// TestSortRunAllocs: sorting one side's stage run allocates the key
// arena and headers, the sort's (prefix, row) pairs, and the three
// gathered result slices, whatever the run length (a run below
// sortx.DefaultRunSize; longer ones add the merge's output and heap).
func TestSortRunAllocs(t *testing.T) {
	const maxAllocs = 6
	for _, n := range []int{140, 400} {
		_, b, _ := normKeyFixture(t, n)
		var run sortedRun
		allocs := testing.AllocsPerRun(20, func() {
			run, _ = sortRun(b, []int{1, 0}, nil)
		})
		if run.len() != n {
			t.Fatalf("sorted %d of %d rows", run.len(), n)
		}
		if allocs > maxAllocs {
			t.Errorf("sortRun over %d rows: %v allocs, want <= %d", n, allocs, maxAllocs)
		}
	}
}
