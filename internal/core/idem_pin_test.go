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
// and the four package-heavy suite manifests end to end: the term count
// of its encoding, the size
// of its CNF and the SAT search that decides it. The query is rebuilt
// from public sym/smt calls the way the native benchmark's traced runs
// build it (one valid order e, asserting e and e;e differ). The figures
// are those of the encoding that folds constant If guards (smt.Fold), so
// the second application of e takes one branch wherever the first one
// settled the guard, and that conjoin each state's ok formula once: the
// term counts fell when the per-step intermediate Ok gates, which were
// never compiled, stopped being built, while the CNF and the search
// stayed byte-identical. The clause counts include clauses that the root
// assignment satisfies after they were stored, and the search starts on
// the CNF as compiled: the solver has no preprocessing pass. Encoding and
// solver data-layout changes must leave every figure where it is; a
// change that moves them changed the formula or the search.
func TestIdempotenceSearchPinned(t *testing.T) {
	pins := []struct {
		name  string
		terms int
		stats string
	}{
		{"bind", 1349, "vars=566 clauses=1434 conflicts=9 decisions=39 propagations=335"},
		{"clamav", 1597, "vars=620 clauses=1576 conflicts=27 decisions=428 propagations=1869"},
		{"nginx", 1228, "vars=507 clauses=1325 conflicts=11 decisions=21 propagations=233"},
		{"jpa", 6608, "vars=2224 clauses=4778 conflicts=11 decisions=19 propagations=654"},
		{"logstash-fixed", 6423, "vars=2154 clauses=4608 conflicts=10 decisions=34 propagations=698"},
		{"amavis", 5923, "vars=2085 clauses=4822 conflicts=34 decisions=1541 propagations=5633"},
		{"hosting", 6423, "vars=2393 clauses=6158 conflicts=47 decisions=396 propagations=3085"},
	}
	for _, p := range pins {
		b, err := benchmarks.Get(p.name)
		if err != nil {
			t.Fatal(err)
		}
		en := idempotenceQuery(t, b.Source)
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

// TestFig12SearchBounded gates figure 12 by search work rather than wall
// clock: each of the 13 verified manifests' idempotence queries is Unsat
// within 200 conflicts and 5,000 decisions. Folding constant guards keeps
// the largest under 50 conflicts and 1,600 decisions; without it ten of
// the 13 pass a bound, the package-heavy ones at over 1,200 conflicts and
// 400,000 decisions.
func TestFig12SearchBounded(t *testing.T) {
	const maxConflicts, maxDecisions = 200, 5000
	for _, b := range benchmarks.Verified() {
		en := idempotenceQuery(t, b.Source)
		st := en.S.Check()
		co := en.S.Counters()
		t.Logf("%s: %v, %d conflicts, %d decisions", b.Name, st, co.Conflicts, co.Decisions)
		if st != sat.Unsat {
			t.Errorf("%s: idempotence query = %v, want unsat", b.Name, st)
		}
		if co.Conflicts > maxConflicts || co.Decisions > maxDecisions {
			t.Errorf("%s: %d conflicts and %d decisions, want at most %d and %d",
				b.Name, co.Conflicts, co.Decisions, maxConflicts, maxDecisions)
		}
	}
}

// idempotenceQuery encodes the manifest's idempotence query over a fresh
// encoder, asserting that one valid order e and e;e differ; the caller
// runs Check.
func idempotenceQuery(t *testing.T, src string) *sym.Encoder {
	t.Helper()
	sys, err := core.Load(src, core.DefaultOptions())
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
	return en
}
