package tcq

import (
	"flag"
	"os"
	"testing"

	"tcq/internal/scratch"
)

// TestMain runs the package's suite with scratch poisoned: every arena
// is overwritten with 0xA5… when it is created and when a session
// releases it, so a result, trace or telemetry record that still points
// into a recycled arena changes under the tests that read it.
func TestMain(m *testing.M) {
	flag.Parse()
	// Not under -bench: benchmarks time the arenas as production fills them.
	scratch.SetPoison(flag.Lookup("test.bench").Value.String() == "")
	os.Exit(m.Run())
}
