package exec

import (
	"flag"
	"os"
	"testing"

	"tcq/internal/scratch"
)

// TestMain runs the package's suite with scratch poisoned: every arena
// is overwritten with 0xA5… when it is created and when a query
// releases it, so an executor that reads scratch it never wrote, or that
// keeps scratch past its session, fails the equivalence tests.
func TestMain(m *testing.M) {
	flag.Parse()
	// Not under -bench: benchmarks time the arenas as production fills them.
	scratch.SetPoison(flag.Lookup("test.bench").Value.String() == "")
	os.Exit(m.Run())
}
