package core

import (
	"os"
	"testing"

	"tcq/internal/scratch"
)

// TestMain runs the package's suite with scratch poisoned: every arena
// is overwritten with 0xA5… when it is created and when a query
// releases it, so an engine that reads scratch it never wrote, or that
// keeps scratch past its session, fails the equivalence tests.
func TestMain(m *testing.M) {
	scratch.SetPoison(true)
	os.Exit(m.Run())
}
