package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tcq/internal/storage"
	"tcq/internal/vclock"
)

// rowLoadedTwin copies every relation of src into a fresh store row by
// row through Append (src was bulk-loaded through AppendBatch): two load
// APIs, one columnar representation. Loading charges no clock, so the
// twin's simulated machine starts in exactly the same state.
func rowLoadedTwin(t *testing.T, src *storage.Store) *storage.Store {
	t.Helper()
	clk := vclock.NewSim(7, 0.02)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	for _, name := range src.RelationNames() {
		rel, err := src.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := st.CreateRelation(name, rel.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.AppendAll(rel.AllTuples()); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestBatchRowEquivalenceQuick is the load-transparency property: for
// random RA expressions, evaluation over AppendBatch-loaded relations
// and over Append-loaded twins of the same data produce identical
// estimates, stage counts, overspend accounting, and stage traces — at
// 1, 2 and 8 workers. How a relation was loaded must be invisible:
// every simulated charge, poll and comparison count is reproduced
// exactly.
func TestBatchRowEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test builds fresh stores per run")
	}
	property := func(c exprCase) bool {
		want := runCase(t, c, 1) // bulk-loaded, serial
		for _, workers := range []int{1, 2, 8} {
			rows := rowLoadedTwin(t, buildCaseStore(t))
			if got := fingerprintOn(t, rows, c, workers, Overrun, 8*time.Second); got != want {
				t.Logf("expr %s seed %d workers %d (Append-loaded):\n  bulk: %s\n  rows: %s",
					c.Expr, c.Seed, workers, want, got)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 8,
		Rand:     rand.New(rand.NewSource(123)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
