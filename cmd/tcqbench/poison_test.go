package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcq/internal/scratch"
)

// TestMain runs the package's suite with scratch poisoned (see
// internal/scratch): the golden comparison below is then a check that
// no experiment output depends on scratch the engine did not write.
func TestMain(m *testing.M) {
	scratch.SetPoison(true)
	os.Exit(m.Run())
}

// TestFig52GoldensUnderPoison runs fig5.2 at 8 trials in-process and
// compares the table and the stage trace with the committed goldens —
// the same bytes scripts/check.sh expects from the built binary, here
// with every arena filled with 0xA5… before use.
func TestFig52GoldensUnderPoison(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "fig5.2", "-trials", "8", "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, "trials/row") && !strings.HasPrefix(line, "wrote ") {
			table.WriteString(line)
		}
	}
	for golden, got := range map[string]string{
		"golden_fig52_t8.txt":         table.String(),
		"golden_trace_fig52_t8.jsonl": readFile(t, tracePath),
	} {
		if want := readFile(t, filepath.Join("..", "..", "testdata", golden)); got != want {
			t.Errorf("fig5.2 under poison diverges from testdata/%s", golden)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
