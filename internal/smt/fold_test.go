package smt

import (
	"math/rand"
	"testing"
)

// TestFoldMatchesBruteForce is Fold's soundness oracle. It builds random
// term DAGs over 1 to 12 variables from And, Or, Not and Ite with shared
// subterms, plus terms made constant by comparing a subterm with an
// equivalent rewriting of it, and checks Fold against brute-force
// evaluation: within the caps (at most 10 variables and 2,000 nodes in
// the DAG) it must return a constant exactly when the term is constant,
// and beyond them the term itself.
func TestFoldMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var c foldCoverage
	for trial := 0; trial < 600; trial++ {
		s := NewSolver()
		vars := make([]T, 1+trial%12)
		for i := range vars {
			vars[i] = s.Var("v")
		}
		pool := append([]T(nil), vars...)
		// Picks favour the newest gates, so that the final term reaches
		// most of the pool, and variables.
		pick := func() T {
			if r.Intn(2) == 0 {
				return vars[r.Intn(len(vars))]
			}
			return pool[len(pool)-1-r.Intn(min(len(pool), 8))]
		}
		for steps := 3 + r.Intn(80); steps > 0; steps-- {
			var u T
			switch r.Intn(4) {
			case 0:
				u = s.Not(pick())
			case 1:
				u = s.And(pick(), pick(), pick())
			case 2:
				u = s.Or(pick(), pick())
			default:
				u = s.Ite(pick(), pick(), pick())
			}
			pool = append(pool, u)
		}
		term := pool[len(pool)-1]
		if r.Intn(3) == 0 { // make every variable part of the support
			term = s.Ite(s.Or(vars...), term, pick())
		}
		switch r.Intn(3) {
		case 0: // valid: term ↔ an equivalent rewriting
			term = s.Iff(term, rewrite(s, term, map[T]T{}))
		case 1: // unsatisfiable unless the rewriting is syntactic
			term = s.And(pick(), term, s.Not(rewrite(s, term, map[T]T{})))
		}
		checkFold(t, s, term, &c)
	}
	// Over the variable cap: parity of 11 and 12 variables, compared with
	// its rewriting, is valid but must stay unfolded.
	for n := foldMaxVars + 1; n <= 12; n++ {
		s := NewSolver()
		parity := s.Var("v")
		for i := 1; i < n; i++ {
			parity = s.Xor(parity, s.Var("v"))
		}
		checkFold(t, s, s.Iff(parity, rewrite(s, parity, map[T]T{})), &c)
	}
	// Over the node cap with few variables: a chain of distinct gates.
	s := NewSolver()
	x, y, z := s.Var("x"), s.Var("y"), s.Var("z")
	chain := x
	for i := 0; i < foldMaxNodes; i++ {
		chain = s.Or(s.And(chain, y), s.Ite(z, chain, x))
	}
	checkFold(t, s, chain, &c)
	checkFold(t, s, s.Or(chain, s.Not(rewrite(s, chain, map[T]T{}))), &c)
	t.Logf("%+v", c)
	if c.narrowConst < 50 || c.wideConst < 50 || c.open < 100 || c.big < 20 {
		t.Errorf("oracle coverage %+v; want at least 50 constants over 1-6 and over 7-10 variables, 100 non-constant and 20 over-cap terms", c)
	}
}

// foldCoverage counts the cases the oracle exercised. Terms over more
// than 6 variables span several words of truth table.
type foldCoverage struct {
	narrowConst, wideConst, open, big int
}

// checkFold compares Fold(term) with brute-force evaluation and counts
// the case it exercised.
func checkFold(t *testing.T, s *Solver, term T, c *foldCoverage) {
	t.Helper()
	nodes, vars := dag(s, term)
	got := s.Fold(term)
	if len(vars) > foldMaxVars || len(nodes) > foldMaxNodes {
		c.big++
		if got != term {
			t.Fatalf("term over the caps (%d vars, %d nodes) folded to %d", len(vars), len(nodes), got)
		}
		return
	}
	seen := [2]bool{}
	for a := 0; a < 1<<len(vars); a++ {
		val := make(map[T]bool, len(nodes))
		for i, v := range vars {
			val[v] = a>>i&1 == 1
		}
		seen[b2i(evalUnder(s, term, val))] = true
	}
	want := term
	switch {
	case !seen[0]:
		want = TrueT
	case !seen[1]:
		want = FalseT
	}
	switch {
	case want == term:
		c.open++
	case len(vars) > 6:
		c.wideConst++
	case len(vars) > 0:
		c.narrowConst++
	}
	if got != want {
		t.Fatalf("Fold over %d vars, %d nodes = %d, brute force says %d", len(vars), len(nodes), got, want)
	}
	if again := s.Fold(term); again != got {
		t.Fatalf("cached Fold = %d, first call %d", again, got)
	}
}

// rewrite returns a term equivalent to t built differently: De Morgan
// duals for And and Or, and Ite expanded into gates.
func rewrite(s *Solver, t T, memo map[T]T) T {
	if u, ok := memo[t]; ok {
		return u
	}
	n := s.nodes[t]
	args := make([]T, len(n.args))
	for i, a := range n.args {
		args[i] = rewrite(s, a, memo)
	}
	var u T
	switch n.op {
	case opNot:
		u = s.Not(args[0])
	case opAnd, opOr:
		neg := make([]T, len(args))
		for i, a := range args {
			neg[i] = s.Not(a)
		}
		if n.op == opAnd {
			u = s.Not(s.Or(neg...))
		} else {
			u = s.Not(s.And(neg...))
		}
	case opIte:
		u = s.Or(s.And(args[0], args[1]), s.And(s.Not(args[0]), args[2]))
	default:
		u = t
	}
	memo[t] = u
	return u
}

// dag returns the nodes reachable from t and, in first-visit order, the
// variables among them.
func dag(s *Solver, t T) (nodes map[T]bool, vars []T) {
	nodes = make(map[T]bool)
	var walk func(u T)
	walk = func(u T) {
		if nodes[u] {
			return
		}
		nodes[u] = true
		if s.nodes[u].op == opVar {
			vars = append(vars, u)
		}
		for _, a := range s.nodes[u].args {
			walk(a)
		}
	}
	walk(t)
	return nodes, vars
}

// evalUnder evaluates t with the variables' values given in val, which
// also memoizes the gates.
func evalUnder(s *Solver, t T, val map[T]bool) bool {
	switch t {
	case TrueT:
		return true
	case FalseT:
		return false
	}
	if v, ok := val[t]; ok {
		return v
	}
	n := s.nodes[t]
	var v bool
	switch n.op {
	case opNot:
		v = !evalUnder(s, n.args[0], val)
	case opAnd:
		v = true
		for _, a := range n.args {
			v = evalUnder(s, a, val) && v
		}
	case opOr:
		for _, a := range n.args {
			v = evalUnder(s, a, val) || v
		}
	case opIte:
		if evalUnder(s, n.args[0], val) {
			v = evalUnder(s, n.args[1], val)
		} else {
			v = evalUnder(s, n.args[2], val)
		}
	}
	val[t] = v
	return v
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
