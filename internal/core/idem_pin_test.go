package core_test

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/sat"
	"repro/internal/sym"
)

// TestIdempotenceSearchPinned pins the idempotence query of three fast
// suite manifests end to end: the term count of its encoding, the size
// of its CNF and the SAT search that decides it. The query is rebuilt
// from public sym/smt calls the way the native benchmark's traced runs
// build it (one valid order e, asserting e and e;e differ). Encoding and
// solver data-layout changes must leave every figure where it is; a
// change that moves them changed the formula or the search.
func TestIdempotenceSearchPinned(t *testing.T) {
	pins := []struct {
		name  string
		terms int
		stats string
	}{
		{"bind", 2953, "vars=1460 clauses=5073 conflicts=359 decisions=22310 propagations=176917"},
		{"clamav", 3590, "vars=1854 clauses=6885 conflicts=317 decisions=27300 propagations=226994"},
		{"nginx", 2761, "vars=1387 clauses=5089 conflicts=289 decisions=20311 propagations=147776"},
	}
	for _, p := range pins {
		b, err := benchmarks.Get(p.name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.Load(b.Source, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		g := sys.ExprGraph()
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		exprs := make([]fs.Expr, 0, len(order))
		for _, n := range order {
			exprs = append(exprs, g.Label(n))
		}
		e := fs.SeqAll(exprs...)
		twice := fs.Seq{E1: e, E2: e}
		dom := fs.Dom(e)
		dom.AddAll(fs.Dom(twice))
		en := sym.NewEncoder(sym.NewVocab(dom, e, twice))
		input := en.FreshInputState("in")
		en.S.Assert(en.StatesDiffer(en.Apply(e, input), en.Apply(twice, input)))
		if st := en.S.Check(); st != sat.Unsat {
			t.Errorf("%s: idempotence query = %v, want unsat", p.name, st)
		}
		if got := en.S.NumTerms(); got != p.terms {
			t.Errorf("%s: %d terms, want %d", p.name, got, p.terms)
		}
		if got := en.S.Stats(); got != p.stats {
			t.Errorf("%s: search moved\n got %s\nwant %s", p.name, got, p.stats)
		}
	}
}
