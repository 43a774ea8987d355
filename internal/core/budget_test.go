package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/qcache"
)

// Satellite coverage for enumerate under resource exhaustion: when the
// deadline passes or the sequence cap is hit mid-enumeration, the check must
// surface ErrTimeout — never a silent "deterministic" built from a partial
// set of linearizations.

// assertNamesCap: an exhausted sequence cap says so, so a caller who sees
// the timeout knows which knob to raise.
func assertNamesCap(t *testing.T, err error) {
	t.Helper()
	if !strings.Contains(err.Error(), "MaxSequences") {
		t.Errorf("error %q does not name the MaxSequences cap", err)
	}
}

// TestMaxSequencesExhaustion: the sequence cap aborts the check even when
// the manifest is, in truth, deterministic. Two independent file writes with
// commutativity off encode 2 linearizations; a cap of 1 must refuse to
// answer rather than report the single explored order as the whole story.
func TestMaxSequencesExhaustion(t *testing.T) {
	src := `
file{"/a": content => "x" }
file{"/b": content => "y" }
`
	opts := DefaultOptions()
	opts.Commutativity = false
	opts.Elimination = false
	opts.Pruning = false
	opts.MaxSequences = 1
	opts.Timeout = time.Minute
	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout at MaxSequences=1, got res=%+v err=%v", res, err)
	}
	assertNamesCap(t, err)
	if res != nil {
		t.Fatalf("exhausted check must not return a result, got %+v", res)
	}

	// Control: the same manifest with an adequate cap completes and is
	// deterministic (the two writes touch disjoint paths).
	opts.MaxSequences = 16
	s2, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Deterministic {
		t.Fatalf("control run should be deterministic, got %+v", res2)
	}
	if res2.Stats.Sequences != 2 {
		t.Fatalf("control run encoded %d sequences, want 2", res2.Stats.Sequences)
	}
}

// TestMaxSequencesExhaustionNondeterministic: a genuinely nondeterministic
// manifest under a too-small cap must also abort with ErrTimeout — the
// checker may not claim either verdict from a truncated enumeration.
func TestMaxSequencesExhaustionNondeterministic(t *testing.T) {
	src := `
file{"/shared": content => "one" }
file{"/shared2": content => "two" }
user{"u1": }
user{"u2": }
user{"u3": }
`
	opts := DefaultOptions()
	opts.Commutativity = false
	opts.Elimination = false
	opts.Pruning = false
	opts.MaxSequences = 3
	opts.Timeout = time.Minute
	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout at MaxSequences=3, got res=%+v err=%v", res, err)
	}
	assertNamesCap(t, err)
}

// TestDeadlineDuringEnumeration: a deadline that expires while enumeration
// is in flight surfaces as ErrTimeout. The factorial workload (7 unordered
// interfering users, all reductions off) cannot finish within a nanosecond
// on any machine, so the test is not timing-sensitive.
func TestDeadlineDuringEnumeration(t *testing.T) {
	src := `
user{"u1": }
user{"u2": }
user{"u3": }
user{"u4": }
user{"u5": }
user{"u6": }
user{"u7": }
`
	opts := DefaultOptions()
	opts.Commutativity = false
	opts.Elimination = false
	opts.Pruning = false
	opts.Timeout = time.Nanosecond
	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout under expired deadline, got res=%+v err=%v", res, err)
	}
	if strings.Contains(err.Error(), "MaxSequences") {
		t.Errorf("a deadline timeout blames the sequence cap: %v", err)
	}
	if res != nil {
		t.Fatalf("timed-out check must not return a result, got %+v", res)
	}
}

// TestSemanticBudgetConservative: exhausting the per-query SAT budget on the
// semantic-commutativity path must degrade conservatively — the pair counts
// as non-commuting and the exact analysis still decides the manifest — not
// flip a verdict. With a budget of 1 conflict, essentially every semantic
// query is inconclusive, which is the worst case the option allows.
func TestSemanticBudgetConservative(t *testing.T) {
	src := `
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
`
	opts := DefaultOptions()
	opts.SemanticCommute = true
	opts.Timeout = 2 * time.Minute
	opts.Parallelism = 1

	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.g.Nodes()
	if len(nodes) < 2 {
		t.Fatalf("want at least 2 resources, got %d", len(nodes))
	}
	la, lb := s.g.Label(nodes[0]), s.g.Label(nodes[1])
	a := &workNode{name: la.res.String(), expr: la.expr, orig: la.orig, sum: la.sum}
	b := &workNode{name: lb.res.String(), expr: lb.expr, orig: lb.orig, sum: lb.sum}

	// Starve every semantic query: force the checker's budget down to a
	// single conflict (Options doesn't expose the budget; this test pins the
	// conservative-degradation contract directly). The overlapping package
	// pair is exactly the case the syntactic check cannot prove and the
	// semantic check normally can — with one conflict of budget the solver
	// is inconclusive, and the only sound answer is "does not commute".
	cc := newCommuteChecker(s.opts)
	cc.budget = 1
	if cc.commutes(a, b) {
		t.Fatal("starved semantic query reported commuting")
	}

	// Sanity: with the real budget the same pair does commute, so the false
	// above really was the conservative fallback, not the true verdict.
	cc2 := newCommuteChecker(s.opts)
	cc2.cache = qcache.New() // don't read cc's starved verdict back
	if !cc2.commutes(a, b) {
		t.Fatal("expected overlapping packages to commute semantically")
	}

	// End-to-end: the full check still terminates with a sound verdict.
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatalf("manifest is deterministic regardless of budget, got %+v", res)
	}
}
