package smt

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sat"
)

// TestNoModelError: model accessors must refuse to guess before a SAT Check
// and after anything invalidates the model.
func TestNoModelError(t *testing.T) {
	s := NewSolver()
	a := s.Var("a")
	if _, err := s.BoolValue(a); !errors.Is(err, ErrNoModel) {
		t.Fatalf("BoolValue before Check: err = %v, want ErrNoModel", err)
	}
	sort3 := Sort{"kind", 3}
	x := s.EnumVar(sort3, "x")
	if _, err := s.EnumValue(x); !errors.Is(err, ErrNoModel) {
		t.Fatalf("EnumValue before Check: err = %v, want ErrNoModel", err)
	}
	s.Assert(a)
	if s.Check() != sat.Sat {
		t.Fatal("sat expected")
	}
	if v, err := s.BoolValue(a); err != nil || !v {
		t.Fatalf("BoolValue after Sat = (%v, %v), want (true, nil)", v, err)
	}
	// A later assertion invalidates the model.
	s.Assert(s.Not(a))
	if _, err := s.BoolValue(a); !errors.Is(err, ErrNoModel) {
		t.Fatalf("BoolValue after invalidating Assert: err = %v, want ErrNoModel", err)
	}
	if s.Check() != sat.Unsat {
		t.Fatal("unsat expected")
	}
	if _, err := s.BoolValue(a); !errors.Is(err, ErrNoModel) {
		t.Fatalf("BoolValue after Unsat: err = %v, want ErrNoModel", err)
	}
}

// TestPushPopBasic: scoped assertions are live inside the scope and retired
// by Pop; top-level assertions persist.
func TestPushPopBasic(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Assert(s.Or(a, b))
	s.Push()
	s.Assert(s.Not(a))
	s.Assert(s.Not(b))
	if s.Check() != sat.Unsat {
		t.Fatal("scoped contradiction should be unsat")
	}
	if s.ScopeDepth() != 1 {
		t.Fatalf("ScopeDepth = %d, want 1", s.ScopeDepth())
	}
	s.Pop()
	if s.ScopeDepth() != 0 {
		t.Fatalf("ScopeDepth after Pop = %d, want 0", s.ScopeDepth())
	}
	if s.Check() != sat.Sat {
		t.Fatal("formula must be sat again after Pop")
	}
	v1, err1 := s.BoolValue(a)
	v2, err2 := s.BoolValue(b)
	if err1 != nil || err2 != nil || (!v1 && !v2) {
		t.Fatalf("model must satisfy a ∨ b: a=%v(%v) b=%v(%v)", v1, err1, v2, err2)
	}
}

// TestPushPopNested: inner scopes retire before outer ones (LIFO).
func TestPushPopNested(t *testing.T) {
	s := NewSolver()
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	s.Assert(s.Or(a, b, c))
	s.Push()
	s.Assert(s.Not(a))
	s.Push()
	s.Assert(s.Not(b))
	s.Assert(s.Not(c))
	if s.Check() != sat.Unsat {
		t.Fatal("inner scope should be unsat")
	}
	s.Pop() // drops ¬b, ¬c
	if s.Check() != sat.Sat {
		t.Fatal("outer scope alone should be sat")
	}
	if v := mustBool(t, s, a); v {
		t.Fatal("¬a from the outer scope must still hold")
	}
	s.Pop()
	if s.Check(s.Not(b), s.Not(c)) != sat.Sat {
		t.Fatal("after both pops, a must be free again")
	}
	if v := mustBool(t, s, a); !v {
		t.Fatal("a must be forced once b and c are assumed false")
	}
}

// TestPopWithoutPushPanics documents the misuse contract.
func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop without Push should panic")
		}
	}()
	NewSolver().Pop()
}

// TestPushPopDifferential: a long-lived solver answering scoped queries must
// agree verdict-for-verdict with fresh solvers built per query. Terms are
// built once in the shared solver — the point of the incremental layer is
// that their compilation is reused across scopes.
func TestPushPopDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		inc := NewSolver()
		nvars := 4 + r.Intn(4)
		vars := make([]T, nvars)
		for i := range vars {
			vars[i] = inc.Var("v")
		}
		// randTerm builds a term in solver s over the given vars, driven by
		// a replayable op stream so the fresh solver builds the same term.
		type opRec struct{ kind, a, b, c int }
		genOps := func() []opRec {
			n := 1 + r.Intn(6)
			ops := make([]opRec, n)
			for i := range ops {
				ops[i] = opRec{r.Intn(4), r.Intn(nvars), r.Intn(nvars), r.Intn(nvars)}
			}
			return ops
		}
		buildTerm := func(s *Solver, vs []T, ops []opRec) T {
			acc := vs[ops[0].a]
			for _, o := range ops {
				switch o.kind {
				case 0:
					acc = s.And(acc, vs[o.a])
				case 1:
					acc = s.Or(acc, s.Not(vs[o.b]))
				case 2:
					acc = s.Ite(vs[o.c], acc, vs[o.a])
				default:
					acc = s.Xor(acc, vs[o.b])
				}
			}
			return acc
		}
		baseOps := genOps()
		inc.Assert(buildTerm(inc, vars, baseOps))
		for q := 0; q < 10; q++ {
			qOps := genOps()
			inc.Push()
			inc.Assert(buildTerm(inc, vars, qOps))
			got := inc.Check()

			fresh := NewSolver()
			fvars := make([]T, nvars)
			for i := range fvars {
				fvars[i] = fresh.Var("v")
			}
			fresh.Assert(buildTerm(fresh, fvars, baseOps))
			fresh.Assert(buildTerm(fresh, fvars, qOps))
			want := fresh.Check()

			if got != want {
				t.Fatalf("trial %d q %d: incremental=%v fresh=%v", trial, q, got, want)
			}
			if got == sat.Sat {
				// The incremental model must satisfy base and query terms.
				if !mustBool(t, inc, buildTerm(inc, vars, baseOps)) ||
					!mustBool(t, inc, buildTerm(inc, vars, qOps)) {
					t.Fatalf("trial %d q %d: incremental model violates assertions", trial, q)
				}
			}
			inc.Pop()
		}
	}
}

// TestCompilationReuseAcrossScopes: popping a scope must not discard the
// Tseitin compilation of terms created inside it.
func TestCompilationReuseAcrossScopes(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Push()
	conj := s.And(a, b)
	s.Assert(conj)
	if s.Check() != sat.Sat {
		t.Fatal("sat expected")
	}
	s.Pop()
	if _, ok := s.compiledLit(conj); !ok {
		t.Fatal("compilation of scoped term dropped by Pop")
	}
	nv := s.sat.NumVars()
	s.Push()
	s.Assert(conj) // must not re-Tseitin: no new sat vars beyond the act literal
	s.Pop()
	if got := s.sat.NumVars(); got > nv+1 {
		t.Fatalf("re-asserting a compiled term allocated %d new vars, want ≤ 1", got-nv)
	}
}

// TestLearntRetainedAcrossScopes: learnt clauses accumulated inside a scope
// survive Pop and later queries still answer correctly.
func TestLearntRetainedAcrossScopes(t *testing.T) {
	s := NewSolver()
	holes, pigeons := 6, 7
	at := make([][]T, pigeons)
	for p := range at {
		at[p] = make([]T, holes)
		for h := range at[p] {
			at[p][h] = s.Var("at")
		}
	}
	s.Push()
	for p := 0; p < pigeons; p++ {
		s.Assert(s.Or(at[p]...))
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.Assert(s.Not(s.And(at[p1][h], at[p2][h])))
			}
		}
	}
	if s.Check() != sat.Unsat {
		t.Fatal("pigeonhole should be unsat")
	}
	learnt := s.LearntClauses()
	if learnt == 0 {
		t.Fatal("expected learnt clauses from the pigeonhole search")
	}
	s.Pop()
	if s.Check() != sat.Sat {
		t.Fatal("after Pop the solver must be sat again")
	}
	s.ClearLearnts()
	if s.LearntClauses() != 0 {
		t.Fatal("ClearLearnts left learnt clauses behind")
	}
	if s.Check() != sat.Sat {
		t.Fatal("solver must stay usable after ClearLearnts")
	}
}

// TestInterruptedAssertion: once the stop flag is seen, Check answers
// Unknown; an assertion whose compilation the stop flag cuts short leaves
// the solver answering Unknown until its scope is popped; with the flag cleared, the same terms compile in full and the
// answers are right again.
func TestInterruptedAssertion(t *testing.T) {
	s := NewSolver()
	x, y := s.Var("x"), s.Var("y")
	contradiction := s.And(s.Or(x, y), s.Not(x), s.Not(y))
	stop := new(atomic.Bool)
	stop.Store(true)
	s.SetStop(stop)
	if !s.Interrupted() {
		t.Fatal("Interrupted = false with the stop flag set")
	}
	// An assertion that needs no compiling gets no verdict either, even
	// one the SAT backend already knows to be unsatisfiable: terms built
	// after the interrupt may be placeholders.
	placeholder := NewSolver()
	placeholder.SetStop(stop)
	placeholder.Assert(FalseT)
	if st := placeholder.Check(); st != sat.Unknown {
		t.Fatalf("Check of a compiled assertion after the interrupt = %v, want unknown", st)
	}
	s.Push()
	s.Assert(contradiction)
	if st := s.Check(); st != sat.Unknown {
		t.Fatalf("Check after a cut-short assertion = %v, want unknown", st)
	}
	s.SetStop(nil)
	if st := s.Check(); st != sat.Unknown {
		t.Fatalf("Check with the assertion still missing = %v, want unknown", st)
	}
	s.Pop()
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("Check after popping the scope = %v, want sat", st)
	}
	s.Push()
	s.Assert(contradiction)
	if st := s.Check(); st != sat.Unsat {
		t.Fatalf("Check of the recompiled contradiction = %v, want unsat", st)
	}
	s.Pop()

	// At the top level the missing constraint is permanent.
	s.SetStop(stop)
	s.Assert(s.Or(s.Not(x), y))
	s.SetStop(nil)
	if st := s.Check(); st != sat.Unknown {
		t.Fatalf("Check after a cut-short top-level assertion = %v, want unknown", st)
	}
}

// TestInterruptedByDeadline: a deadline in the past stops compilation
// (after at most pollEvery polls) and the search.
func TestInterruptedByDeadline(t *testing.T) {
	s := NewSolver()
	s.SetDeadline(time.Now().Add(-time.Second))
	for i := 0; i < pollEvery && !s.Interrupted(); i++ {
	}
	if !s.Interrupted() {
		t.Fatalf("Interrupted = false after %d polls past the deadline", pollEvery)
	}
	s.Assert(s.Var("x"))
	if st := s.Check(); st != sat.Unknown {
		t.Fatalf("Check past the deadline = %v, want unknown", st)
	}
	s.SetDeadline(time.Time{})
	if s.Interrupted() {
		t.Fatal("Interrupted = true after the deadline was removed")
	}
}
