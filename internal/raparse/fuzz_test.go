package raparse

import "testing"

// FuzzParse checks that the RA parser never panics on arbitrary input
// and that every accepted expression round-trips through its canonical
// String rendering: Parse(e.String()) must succeed and re-render to
// the same string (the grammar and the printer agree).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		first := e.String()
		e2, err := Parse(first)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q: %v", first, err)
		}
		if second := e2.String(); second != first {
			t.Fatalf("canonical form not a fixed point:\n first: %q\nsecond: %q", first, second)
		}
	})
}

// FuzzParsePred covers the standalone predicate entry point the same
// way (it shares the lexer but has its own top-level production).
func FuzzParsePred(f *testing.F) {
	for _, s := range predSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParsePred(input)
		if err != nil {
			return
		}
		first := p.String()
		p2, err := ParsePred(first)
		if err != nil {
			t.Fatalf("canonical predicate does not re-parse: %q: %v", first, err)
		}
		if second := p2.String(); second != first {
			t.Fatalf("canonical predicate not a fixed point:\n first: %q\nsecond: %q", first, second)
		}
	})
}

// parseSeeds and predSeeds are the seed corpora of FuzzParse and
// FuzzParsePred; TestSeedPredicatesBatchCompile reuses them as its
// table of predicate forms.
var parseSeeds = []string{
	// README and shell examples.
	`select(orders, amount < 100 and region = "north")`,
	`select(orders, amount < 1000)`,
	`select(r, a < 10)`,
	`project(r, [a, b, c])`,
	`join(r, s, id = rid and a = b)`,
	`union(r, s)`,
	`diff(r, s)`,
	`intersect(r, s, u)`,
	`union(select(r, a < 5), join(project(s, [id, a]), u, id = k))`,
	`SELECT(r, a < 1 AND NOT b > 2)`,
	`select(r, true)`,
	// Shape-fingerprint collision candidates: pairs the catalog's
	// canonicalizer must merge (commuted operands, reordered
	// chains) next to pairs it must keep apart (asymmetric set
	// difference, join sides, projection order). Seeding both
	// halves steers the fuzzer toward the boundary.
	`select(r, 10 > a)`,
	`select(r, b = 2 and a = 1)`,
	`select(r, not not a = 1)`,
	`select(r, a <= 10)`,
	`union(s, r)`,
	`intersect(u, s, r)`,
	`diff(s, r)`,
	`join(s, r, a = b)`,
	`join(r, s, b = a and id = rid)`,
	`project(r, [b, a])`,
	// Malformed shapes the parser must reject gracefully.
	`select(r a < 1)`,
	`project(r, [a)`,
	`join(r, s, a = )`,
	`select(r, a @ 1)`,
	``,
}

var predSeeds = []string{
	`a < 10`,
	`amount < 100 and region = "north"`,
	`a < 1 AND NOT b > 2`,
	`not (a = 1 or b = 2)`,
	`true`,
	`a <`,
	``,
}
