package exec

import (
	"bytes"
	"testing"

	"tcq/internal/scratch"
	"tcq/internal/tuple"
)

// normKeyFixture builds n two-column tuples plus the same data as a
// columnar batch.
func normKeyFixture(t *testing.T, n int) ([]tuple.Tuple, *tuple.Batch, *tuple.Schema) {
	t.Helper()
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	ts := make([]tuple.Tuple, 0, n)
	b := tuple.NewBatch(sch)
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{int64(i), int64(i % 13)}
		ts = append(ts, tp)
		if err := b.AppendRow(tp); err != nil {
			t.Fatal(err)
		}
	}
	return ts, b, sch
}

// TestNormKeysIntoMatchesAllocating pins that keys built into a
// recycled arena are byte-identical to keys built into a fresh one —
// and both to the keys tuple.AppendNormKey gives the materialized rows —
// across reuse (shrinking and growing between resets).
func TestNormKeysIntoMatchesAllocating(t *testing.T) {
	mem := new(scratch.Arena)
	for _, n := range []int{0, 1, 7, 100, 3, 250} {
		ts, b, _ := normKeyFixture(t, n)
		for _, cols := range [][]int{nil, {1}, {1, 0}} {
			want := batchNormKeys(new(scratch.Arena), b, cols, nil)
			if len(want) != len(ts) {
				t.Fatalf("n=%d cols=%v: fresh build has %d keys, want %d", n, cols, len(want), len(ts))
			}
			mem.Reset()
			keys := batchNormKeys(mem, b, cols, nil)
			if len(keys) != len(want) {
				t.Fatalf("n=%d cols=%v: recycled build has %d keys, want %d", n, cols, len(keys), len(want))
			}
			for i := range want {
				if !bytes.Equal(keys[i], want[i]) {
					t.Fatalf("n=%d cols=%v key %d: recycled %x, fresh %x", n, cols, i, keys[i], want[i])
				}
				if row := tuple.AppendNormKey(nil, ts[i], cols, nil); !bytes.Equal(want[i], row) {
					t.Fatalf("n=%d cols=%v key %d: batch %x, row %x", n, cols, i, want[i], row)
				}
			}
		}
	}
}

// TestNormKeysIntoSteadyStateZeroAllocs pins the arena's claim at the
// source: once it has warmed to the stage size, rebuilding a stage's
// normalized keys allocates nothing — neither for the key bytes nor for
// the [][]byte headers.
func TestNormKeysIntoSteadyStateZeroAllocs(t *testing.T) {
	_, b, _ := normKeyFixture(t, 200)
	mem := new(scratch.Arena)
	batchNormKeys(mem, b, nil, nil) // warm

	if allocs := testing.AllocsPerRun(100, func() {
		mem.Reset()
		batchNormKeys(mem, b, nil, nil)
	}); allocs != 0 {
		t.Errorf("warm key build allocates: %v allocs/op", allocs)
	}
}
