package raparse

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tcq/internal/ra"
	"tcq/internal/tuple"
)

// corpusStrings returns the committed fuzz counterexamples of one fuzz
// target (testdata/fuzz/<target>/*, "go test fuzz v1" files holding one
// string argument).
func corpusStrings(t *testing.T, target string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// selectPreds collects the predicate of every selection in e.
func selectPreds(e ra.Expr, out []ra.Pred) []ra.Pred {
	switch v := e.(type) {
	case *ra.Select:
		out = selectPreds(v.Input, append(out, v.Pred))
	case *ra.Project:
		out = selectPreds(v.Input, out)
	case *ra.Join:
		out = selectPreds(v.Right, selectPreds(v.Left, out))
	case *ra.Union:
		out = selectPreds(v.Right, selectPreds(v.Left, out))
	case *ra.Difference:
		out = selectPreds(v.Right, selectPreds(v.Left, out))
	case *ra.Intersect:
		for _, in := range v.Inputs {
			out = selectPreds(in, out)
		}
	}
	return out
}

// predColumns records, for every column p mentions, the constants it is
// compared with (nil when it only meets other columns).
func predColumns(p ra.Pred, cols map[string][]tuple.Value) {
	switch q := p.(type) {
	case *ra.Cmp:
		for _, side := range [][2]ra.Operand{{q.Left, q.Right}, {q.Right, q.Left}} {
			if c, ok := side[0].(ra.Col); ok {
				if k, ok := side[1].(ra.Const); ok {
					cols[c.Name] = append(cols[c.Name], k.Value)
				} else if _, seen := cols[c.Name]; !seen {
					cols[c.Name] = nil
				}
			}
		}
	case *ra.And:
		predColumns(q.L, cols)
		predColumns(q.R, cols)
	case *ra.Or:
		predColumns(q.L, cols)
		predColumns(q.R, cols)
	case *ra.Not:
		predColumns(q.P, cols)
	}
}

// TestSeedPredicatesBatchCompile pins the one-loop contract of the
// select operator at the grammar's edge: every predicate form in the
// raparse fuzz seed corpora (and the committed counterexamples)
// compiles to a batch predicate — a CompileBatch failure is a query
// Build error now, not a silent fallback to a scalar scan — and agrees
// row for row with its scalar ra.Compile twin, which the exact
// evaluator keeps using. Columns are typed after the constants they
// meet, and rows are drawn around those constants so every comparison
// takes both outcomes.
func TestSeedPredicatesBatchCompile(t *testing.T) {
	var preds []ra.Pred
	for _, s := range append(corpusStrings(t, "FuzzParse"), parseSeeds...) {
		if e, err := Parse(s); err == nil {
			preds = selectPreds(e, preds)
		}
	}
	for _, s := range append(corpusStrings(t, "FuzzParsePred"), predSeeds...) {
		if p, err := ParsePred(s); err == nil {
			preds = append(preds, p)
		}
	}
	if len(preds) < 15 {
		t.Fatalf("only %d predicates found in the seed corpora", len(preds))
	}
	rng := rand.New(rand.NewSource(5))
	for _, p := range preds {
		consts := map[string][]tuple.Value{}
		predColumns(p, consts)
		names := make([]string, 0, len(consts)+1)
		for name := range consts {
			names = append(names, name)
		}
		names = ra.SortStrings(append(names, "_other")) // a schema needs a column even for `true`
		var cols []tuple.Column
		for _, name := range names {
			c := tuple.Column{Name: name, Type: tuple.Int}
			if len(consts[name]) > 0 {
				switch consts[name][0].(type) {
				case float64:
					c.Type = tuple.Float
				case string:
					c.Type, c.Size = tuple.String, 16
				}
			}
			cols = append(cols, c)
		}
		schema := tuple.MustSchema(cols...)

		b := tuple.NewBatch(schema)
		for i := 0; i < 64; i++ {
			row := make(tuple.Tuple, len(cols))
			for j, c := range cols {
				var near tuple.Value
				if ks := consts[c.Name]; len(ks) > 0 {
					near = ks[rng.Intn(len(ks))]
				}
				switch c.Type {
				case tuple.Int:
					k, _ := near.(int64)
					row[j] = k + int64(rng.Intn(3)) - 1
				case tuple.Float:
					k, _ := near.(float64)
					row[j] = []float64{k - 0.5, k, k + 0.5, math.NaN(), math.Copysign(0, -1)}[rng.Intn(5)]
				case tuple.String:
					k, _ := near.(string)
					row[j] = []string{"", k, k + "a", "m"}[rng.Intn(4)]
				}
			}
			if err := b.AppendRow(row); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
		}

		scalar, err := ra.Compile(p, schema)
		if err != nil {
			t.Fatalf("Compile(%s): %v", p, err)
		}
		batched, err := ra.CompileBatch(p, schema)
		if err != nil {
			t.Fatalf("CompileBatch(%s): %v", p, err)
		}
		// A comparison of a number with a string is accepted by both
		// compilers and panics in both at evaluation (CompareValues);
		// agreement includes that.
		got := make([]bool, b.Len())
		batchPanic := panics(func() { batched(b, got) })
		for i, row := range b.Rows() {
			var want bool
			if scalarPanic := panics(func() { want = scalar(row) }); scalarPanic != batchPanic {
				t.Fatalf("%s row %v: scalar panic %q, batch panic %q", p, row, scalarPanic, batchPanic)
			}
			if batchPanic == "" && got[i] != want {
				t.Fatalf("%s row %d %v: batch=%v scalar=%v", p, i, row, got[i], want)
			}
		}
	}
}

// panics runs f and returns the panic message, "" when f returns.
func panics(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
