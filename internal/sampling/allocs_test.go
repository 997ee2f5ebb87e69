//go:build !race

package sampling

import (
	"math/rand"
	"testing"
)

// TestDrawAllocs: a live draw allocates its output slice and, when the
// displaced-position table must grow, the new table — nothing per
// drawn block.
func TestDrawAllocs(t *testing.T) {
	for _, k := range []int{1, 30, 500} {
		s := NewBlockSampler(1<<20, rand.New(rand.NewSource(1)))
		if allocs := testing.AllocsPerRun(20, func() { s.Draw(k) }); allocs > 2 {
			t.Errorf("Draw(%d): %v allocs per call, want <= 2 (output + table growth)", k, allocs)
		}
	}
}
