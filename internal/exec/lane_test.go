package exec

import (
	"reflect"
	"testing"
	"time"

	"tcq/internal/ra"
	"tcq/internal/storage"
)

// stageState is everything a stage leaves behind on the simulated
// machine.
type stageState struct {
	clock    time.Duration
	comps    int64
	polls    int64
	counters storage.Counters
	timings  []StepTiming
}

// TestLaneTermFloorEquivalence pins the term tier's size floor: a
// multi-term query whose stages fall on both sides of subParMin — so
// its lanes run inline on some stages and on goroutines on others —
// must end every stage with exactly the clock, comparison and poll
// counts, store counters and step timings of the serial evaluation.
// Under -race this is also the data-race coverage of term-level
// goroutines, which only stages above the floor still spawn.
func TestLaneTermFloorEquivalence(t *testing.T) {
	r, s := &ra.Base{Name: "r"}, &ra.Base{Name: "s"}
	exprs := map[string]ra.Expr{
		"diff":  &ra.Difference{Left: r, Right: s},
		"union": &ra.Union{Left: r, Right: s},
	}
	// 3000 tuples at 64 per block: 47 blocks per relation. Block counts
	// per stage, small (below the floor) and large (above it) mixed.
	split := []int{4, 20, 2, 21}
	for name, e := range exprs {
		run := func(workers int) (states []stageState, below []bool) {
			st, clk := buildBoundaryStore(t, 3000, true)
			env := NewEnv(st)
			q, err := NewParallelQuery(e, env, StoreCatalog{st}, FullFulfillment, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(q.Terms) < 2 {
				t.Fatalf("%s decomposes into %d term(s); the floor test needs several", name, len(q.Terms))
			}
			next := 0
			for stage, k := range split {
				blocks := make([]int, k)
				for i := range blocks {
					blocks[i] = next + i
				}
				next += k
				for _, fname := range q.FeedNames() {
					if err := q.Feeds[fname].LoadStage(blocks); err != nil {
						t.Fatal(err)
					}
				}
				if err := q.AdvanceStage(stage); err != nil {
					t.Fatal(err)
				}
				states = append(states, stageState{clk.Now(), env.Comparisons, env.DeadlinePolls, st.Counters(), env.TakeTimings()})
				below = append(below, q.stageBelowFloor(stage))
			}
			return states, below
		}
		want, below := run(1)
		if want := []bool{true, false, true, false}; !reflect.DeepEqual(below, want) {
			t.Fatalf("%s: stages below the floor = %v, want %v — the split no longer straddles subParMin", name, below, want)
		}
		got, _ := run(4)
		for stage := range want {
			if !reflect.DeepEqual(got[stage], want[stage]) {
				t.Errorf("%s stage %d (below floor: %v): 4 workers diverge from serial:\n got: %+v\nwant: %+v",
					name, stage, below[stage], got[stage], want[stage])
			}
		}
	}
}
