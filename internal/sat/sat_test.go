package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

func TestLitBasics(t *testing.T) {
	v := Var(3)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Error("Var roundtrip")
	}
	if !p.IsPos() || n.IsPos() {
		t.Error("polarity")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Error("negation")
	}
	if MkLit(v, true) != p || MkLit(v, false) != n {
		t.Error("MkLit")
	}
	if p.String() != "x3" || !strings.Contains(n.String(), "x3") {
		t.Error("String")
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a)) {
		t.Fatal("unit clause rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Value(a) {
		t.Error("model violates unit clause")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if s.AddClause(NegLit(a)) {
		t.Fatal("contradictory unit accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a), NegLit(a)) {
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Error("tautology stored")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestSimpleUnsat(t *testing.T) {
	// (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b)
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(PosLit(a), NegLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(a), NegLit(b))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestModelSatisfiesClauses(t *testing.T) {
	s := New()
	vars := make([]Var, 10)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	var clauses [][]Lit
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		var c []Lit
		for j := 0; j < 3; j++ {
			c = append(c, MkLit(vars[r.Intn(len(vars))], r.Intn(2) == 0))
		}
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	if got := s.Solve(); got == Sat {
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if s.Value(l.Var()) == l.IsPos() {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("model violates clause %v", c)
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b)) // a → b
	s.AddClause(NegLit(b), NegLit(a)) // b → ¬a... makes a unsatisfiable
	if got := s.Solve(PosLit(a)); got != Unsat {
		t.Fatalf("Solve(a) = %v, want unsat", got)
	}
	// The solver must remain usable and satisfiable without assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want sat", got)
	}
	if got := s.Solve(NegLit(a)); got != Sat {
		t.Fatalf("Solve(¬a) = %v, want sat", got)
	}
	if s.Value(a) {
		t.Error("assumption not respected in model")
	}
}

// Pigeonhole principle PHP(n+1, n) is unsatisfiable and exercises clause
// learning heavily.
func php(t *testing.T, holes int) Status {
	t.Helper()
	s := New()
	pigeons := holes + 1
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	return s.Solve()
}

func TestPigeonhole(t *testing.T) {
	for holes := 2; holes <= 6; holes++ {
		if got := php(t, holes); got != Unsat {
			t.Errorf("PHP(%d+1,%d) = %v, want unsat", holes, holes, got)
		}
	}
}

func TestBudget(t *testing.T) {
	s := New()
	holes := 7
	pigeons := holes + 1
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	s.Budget = 50
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with tiny budget = %v, want unknown", got)
	}
	s.Budget = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve unlimited = %v, want unsat", got)
	}
}

// bruteForce decides satisfiability by enumeration over nvars ≤ 20.
func bruteForce(nvars int, clauses [][]Lit) bool {
	for mask := 0; mask < 1<<nvars; mask++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := mask>>(int(l.Var())-1)&1 == 1
				if bit == l.IsPos() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBruteForce cross-checks the CDCL solver against
// exhaustive enumeration on random small instances of varying density,
// covering both sat and unsat cases.
func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		nvars := 3 + r.Intn(8)
		nclauses := 1 + r.Intn(nvars*5)
		var clauses [][]Lit
		s := New()
		vars := make([]Var, nvars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		okSoFar := true
		for i := 0; i < nclauses; i++ {
			width := 1 + r.Intn(3)
			c := make([]Lit, 0, width)
			for j := 0; j < width; j++ {
				c = append(c, MkLit(vars[r.Intn(nvars)], r.Intn(2) == 0))
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				okSoFar = false
			}
		}
		want := bruteForce(nvars, clauses)
		var got bool
		if !okSoFar {
			got = false
		} else {
			got = s.Solve() == Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		// If sat, the model must satisfy every clause.
		if got {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) == l.IsPos() {
						sat = true
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates %v", trial, c)
				}
			}
		}
	}
}

// TestIncrementalSolves exercises repeated Solve calls with growing clause
// sets, mirroring how the determinacy checker reuses solvers.
func TestIncrementalSolves(t *testing.T) {
	s := New()
	n := 8
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Chain of implications x1 → x2 → ... → xn.
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	if s.Solve(PosLit(vars[0])) != Sat {
		t.Fatal("chain sat under x1")
	}
	for i := 0; i < n; i++ {
		if !s.Value(vars[i]) {
			t.Fatalf("x%d should be forced true", i+1)
		}
	}
	// Now forbid xn; x1 must be unsat, ¬x1 still sat.
	s.AddClause(NegLit(vars[n-1]))
	if s.Solve(PosLit(vars[0])) != Unsat {
		t.Fatal("x1 should now be unsat")
	}
	if s.Solve() != Sat {
		t.Fatal("formula should still be sat")
	}
}

func TestDimacs(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), NegLit(b))
	d := s.Dimacs()
	if !strings.HasPrefix(d, "p cnf 2 1") {
		t.Errorf("header wrong: %q", d)
	}
	if !strings.Contains(d, "1 -2 0") && !strings.Contains(d, "-2 1 0") {
		t.Errorf("clause missing: %q", d)
	}
}

func TestStatsAndStatusString(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.Solve()
	if s.Stats() == "" {
		t.Error("empty stats")
	}
	for st, want := range map[Status]string{Sat: "sat", Unsat: "unsat", Unknown: "unknown"} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q", st, st.String())
		}
	}
	if got := fmt.Sprint(ErrBudget); got == "" {
		t.Error("ErrBudget message empty")
	}
}

// TestReduceDB drives the solver far enough to trigger learnt-clause
// deletion and checks correctness is preserved (PHP stays unsat).
func TestReduceDB(t *testing.T) {
	s := New()
	s.maxLearnt = 50 // force frequent reductions
	holes := 7
	pigeons := holes + 1
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP with clause deletion = %v, want unsat", got)
	}
	// Glue clauses (lbd <= keepGlue) and binaries are exempt from
	// deletion, so "the DB gets reduced" means the deletable remainder
	// halves per reduceDB call.
	deletable := func() int {
		n := 0
		for i := range s.clauses {
			c := &s.clauses[i]
			if c.learnt && c.lits != nil && len(c.lits) > 2 && c.lbd > keepGlue {
				n++
			}
		}
		return n
	}
	before := deletable()
	if before == 0 {
		t.Fatal("solve learnt no deletable clauses; the reduction path was never exercised")
	}
	s.reduceDB()
	if after := deletable(); after > before-before/2 {
		t.Errorf("reduceDB kept %d of %d deletable clauses; want at most %d", after, before, before-before/2)
	}
}

// TestReduceDBKeepsGlueAndRanksByLBD pins the deletion policy: glue
// clauses (lbd <= keepGlue) survive unconditionally even at zero
// activity, and among candidates LBD outranks activity — a high-activity
// lbd-8 clause is deleted before a low-activity lbd-3 one.
func TestReduceDBKeepsGlueAndRanksByLBD(t *testing.T) {
	s := New()
	vars := make([]Var, 3)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	mk := func(lbd int32, act float64) clauseRef {
		cref := s.allocClause([]Lit{PosLit(vars[0]), PosLit(vars[1]), PosLit(vars[2])}, true)
		s.clauses[cref].lbd = lbd
		s.clauses[cref].act = act
		s.nLearnt++
		s.attach(cref)
		return cref
	}
	var glue, worst, better []clauseRef
	for i := 0; i < 4; i++ {
		glue = append(glue, mk(keepGlue, 0))
		worst = append(worst, mk(8, 100))
		better = append(better, mk(3, 1))
	}
	s.reduceDB()
	alive := func(c clauseRef) bool { return s.clauses[c].lits != nil }
	for _, c := range glue {
		if !alive(c) {
			t.Error("glue clause deleted despite lbd <= keepGlue")
		}
	}
	// Eight candidates (worst + better); the deleted half must be exactly
	// the lbd-8 clauses, their higher activity notwithstanding.
	for _, c := range worst {
		if alive(c) {
			t.Error("lbd-8 clause survived reduceDB while lbd-3 clauses were available")
		}
	}
	for _, c := range better {
		if !alive(c) {
			t.Error("lbd-3 clause deleted before the lbd-8 ones")
		}
	}
}

// Random instances with aggressive clause deletion still agree with brute
// force.
func TestReduceDBRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 150; trial++ {
		nvars := 4 + r.Intn(8)
		nclauses := nvars * 5
		var clauses [][]Lit
		s := New()
		s.maxLearnt = 10
		vars := make([]Var, nvars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		ok := true
		for i := 0; i < nclauses; i++ {
			width := 1 + r.Intn(3)
			c := make([]Lit, 0, width)
			for j := 0; j < width; j++ {
				c = append(c, MkLit(vars[r.Intn(nvars)], r.Intn(2) == 0))
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
			}
		}
		want := bruteForce(nvars, clauses)
		got := ok && s.Solve() == Sat
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, got, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		holes := 7
		pigeons := holes + 1
		at := make([][]Var, pigeons)
		for p := 0; p < pigeons; p++ {
			at[p] = make([]Var, holes)
			for h := 0; h < holes; h++ {
				at[p][h] = s.NewVar()
			}
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]Lit, holes)
			for h := 0; h < holes; h++ {
				lits[h] = PosLit(at[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
				}
			}
		}
		if s.Solve() != Unsat {
			b.Fatal("php should be unsat")
		}
	}
}

// loadPHP loads the pigeonhole principle PHP(holes+1, holes) into s.
func loadPHP(s *Solver, holes int) {
	pigeons := holes + 1
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
}

// A pre-set stop flag must abort the search as Unknown without consuming
// the instance; clearing it must let the same solver finish.
func TestStopFlag(t *testing.T) {
	s := New()
	loadPHP(s, 7)
	var stop atomic.Bool
	stop.Store(true)
	s.SetStop(&stop)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with stop set = %v, want unknown", got)
	}
	stop.Store(false)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve after clearing stop = %v, want unsat", got)
	}
	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve with stop detached = %v, want unsat", got)
	}
}
