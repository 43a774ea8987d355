package core_test

import (
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/graph"
)

// errorMasked is the error-masking shape of the fleet pkg-config class in
// seven resources: /etc/ntp.conf lacks its require on Package['ntp'], and
// elimination removes main.cf, which requires postfix. The two groups
// conflict syntactically but commute, so the first two orders explored
// agree and the probe finds nothing. The witness of the full disjunction
// is constrained only on the survivors, and the input the solver picks
// marks postfix installed with /etc/postfix a regular file, so the
// eliminated main.cf errors in both full orders and masks the survivors'
// divergence until that input is shrunk.
const errorMasked = `
group {'a': ensure => present }
group {'b': ensure => present }
package {'ntp': ensure => present }
package {'postfix': ensure => present }
package {'xinetd': ensure => present }
file {'/etc/ntp.conf': content => 'server' }
file {'/etc/postfix/main.cf': content => 'c', require => [Package['postfix'], Package['xinetd']] }
`

// checkWithoutFallback runs src's determinacy check under the default
// options and fails the test if the check fell back to the exact
// configuration.
func checkWithoutFallback(t *testing.T, src string) (*core.System, *core.DeterminismResult) {
	t.Helper()
	sys, err := core.Load(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fellBack := false
	defer core.SetExactFallbackTestHook(func() { fellBack = true })()
	res, err := sys.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if fellBack {
		t.Error("the check fell back to the exact configuration")
	}
	return sys, res
}

// assertReplays checks that cex's orders are linearizations of sys's full
// resource graph and that fs.Eval reproduces the reported, diverging
// outcomes from its input.
func assertReplays(t *testing.T, sys *core.System, cex *core.Counterexample) {
	t.Helper()
	e1, e2 := replayExprs(t, sys, cex)
	out1, ok1 := fs.Eval(e1, cex.Input)
	out2, ok2 := fs.Eval(e2, cex.Input)
	if ok1 != cex.Ok1 || ok2 != cex.Ok2 || (ok1 && !out1.Equal(cex.Out1)) || (ok2 && !out2.Equal(cex.Out2)) {
		t.Fatalf("replay from %s does not reproduce the reported outcomes", fs.StateString(cex.Input))
	}
	if !diverges(e1, e2, cex.Input) {
		t.Fatalf("orders do not diverge from %s", fs.StateString(cex.Input))
	}
}

// diverges reports whether e1 and e2 produce different outcomes from in.
func diverges(e1, e2 fs.Expr, in fs.State) bool {
	out1, ok1 := fs.Eval(e1, in)
	out2, ok2 := fs.Eval(e2, in)
	return ok1 != ok2 || (ok1 && !out1.Equal(out2))
}

// replayExprs checks that cex's orders are linearizations of sys's full
// resource graph and returns each as one sequenced expression of the
// unpruned resource models.
func replayExprs(t *testing.T, sys *core.System, cex *core.Counterexample) (fs.Expr, fs.Expr) {
	t.Helper()
	if cex == nil {
		t.Fatal("non-deterministic verdict without a counterexample")
	}
	g := sys.ExprGraph()
	names := sys.ResourceNames()
	byName := make(map[string]fs.Expr, len(names))
	nameOf := make(map[graph.Node]string, len(names))
	for i, n := range g.Nodes() {
		byName[names[i]] = g.Label(n)
		nameOf[n] = names[i]
	}
	seq := func(order []string) fs.Expr {
		if len(order) != len(names) {
			t.Fatalf("order has %d resources, the graph %d", len(order), len(names))
		}
		pos := make(map[string]int, len(order))
		exprs := make([]fs.Expr, len(order))
		for i, name := range order {
			e, ok := byName[name]
			if !ok {
				t.Fatalf("order names unknown resource %s", name)
			}
			pos[name] = i
			exprs[i] = e
		}
		for _, n := range g.Nodes() {
			for _, v := range g.Succs(n) {
				if pos[nameOf[n]] > pos[nameOf[v]] {
					t.Fatalf("order runs %s before its dependency %s", nameOf[v], nameOf[n])
				}
			}
		}
		return fs.SeqAll(exprs...)
	}
	return seq(cex.Order1), seq(cex.Order2)
}

// TestErrorMaskedWitnessRepaired: a witness that an eliminated resource
// masks on the full graph is repaired by shrinking its input against the
// survivors, and the check reports a replayed counterexample without
// falling back to the exact configuration.
func TestErrorMaskedWitnessRepaired(t *testing.T) {
	sys, res := checkWithoutFallback(t, errorMasked)
	if res.Deterministic {
		t.Fatal("verdict deterministic, want non-deterministic")
	}
	if res.Stats.Eliminated == 0 {
		t.Error("elimination removed nothing; the shape needs main.cf eliminated")
	}
	assertReplays(t, sys, res.Counterexample)
}

// TestFleetPkgConfigDecided: the fleet pkg-config class at fleet scale is
// decided on the fast path — elimination keeps 6 of 1,184 resources — by
// the probe of the first two orders, and its counterexample replays on
// the full graph.
func TestFleetPkgConfigDecided(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sys, res := checkWithoutFallback(t, benchmarks.Fleet(1200, benchmarks.FleetPkgConfig, seed))
		if res.Deterministic {
			t.Fatalf("seed %d: verdict deterministic, want non-deterministic", seed)
		}
		if res.Stats.Eliminated != 1178 {
			t.Errorf("seed %d: eliminated %d resources, want 1178", seed, res.Stats.Eliminated)
		}
		if res.Stats.Sequences != 2 {
			t.Errorf("seed %d: encoded %d linearizations, want the probe's 2", seed, res.Stats.Sequences)
		}
		assertReplays(t, sys, res.Counterexample)
	}
}

// fallbackNeeded has a witness the fast path cannot repair: the probed
// pair differs only when postfix is installed without /etc/postfix, and
// that input makes the eliminated main.cf error in both orders, so the
// non-deterministic verdict comes from the exact configuration.
const fallbackNeeded = `
package {'ntp': ensure => present }
package {'postfix': ensure => present }
package {'monit': ensure => present }
file {'/etc/ntp.conf': content => 'server' }
file {'/etc/postfix/main.cf': content => 'c', require => Package['postfix'] }
`

// TestExactFallbackDurationSpansCheck: a check that falls back to the
// exact configuration still replays its counterexample, and its
// Stats.Duration covers the reduced attempt as well as the exact re-run.
// The hook sleeps between the two, so a Duration measured over the
// re-run alone comes out below the sleep.
func TestExactFallbackDurationSpansCheck(t *testing.T) {
	const pause = 50 * time.Millisecond
	sys, err := core.Load(fallbackNeeded, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	defer core.SetExactFallbackTestHook(func() {
		fallbacks++
		time.Sleep(pause)
	})()
	res, err := sys.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 1 {
		t.Fatalf("exact fallback taken %d times, want 1", fallbacks)
	}
	if res.Deterministic {
		t.Fatal("verdict deterministic, want non-deterministic")
	}
	assertReplays(t, sys, res.Counterexample)
	if res.Stats.Duration < pause {
		t.Errorf("Stats.Duration = %v, want at least the %v spent before the exact re-run", res.Stats.Duration, pause)
	}
}
