package sat

import (
	"math/rand"
	"testing"
)

// TestSimplifyRemovesSatisfied: root-level simplification is AddClause's
// normalization, the solver's only clause cleanup. A clause that a root
// unit satisfies is not stored.
func TestSimplifyRemovesSatisfied(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(PosLit(a), PosLit(b)) // satisfied by the unit: dropped
	if got := s.NumClauses(); got != 0 {
		t.Errorf("NumClauses after a root-satisfied clause = %d, want 0", got)
	}
	if s.Solve() != Sat || !s.Value(a) {
		t.Error("formula should stay sat with a true")
	}
}

// TestSimplifyStrengthens: a clause that contains the negation of a root
// unit is stored without that root-false literal.
func TestSimplifyStrengthens(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a), PosLit(b), PosLit(c)) // stored as (b ∨ c)
	if got := s.NumClauses(); got != 1 {
		t.Fatalf("NumClauses after a clause with a root-false literal = %d, want 1", got)
	}
	if got := s.clauses[0].lits; len(got) != 2 || got[0].Var() == a || got[1].Var() == a {
		t.Errorf("stored clause = %v, want (b ∨ c) without ¬a", got)
	}
	// Under ¬b the stored clause alone must force c.
	if s.Solve(NegLit(b)) != Sat {
		t.Fatal("should be sat under ¬b")
	}
	if !s.Value(a) || !s.Value(c) {
		t.Error("model violates the stored clause: ¬b should leave a and force c")
	}
}

// TestClearLearnts drops the learnt database and leaves the problem intact.
func TestClearLearnts(t *testing.T) {
	s := New()
	// PHP(6,6) is satisfiable but needs search, producing learnt clauses.
	n := 6
	at := make([][]Var, n)
	for p := 0; p < n; p++ {
		at[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	nc := s.NumClauses()
	if s.Solve() != Sat {
		t.Fatal("PHP(6,6) should be sat")
	}
	s.ClearLearnts()
	if got := s.LearntClauses(); got != 0 {
		t.Errorf("LearntClauses after ClearLearnts = %d, want 0", got)
	}
	if got := s.NumClauses(); got != nc {
		t.Errorf("problem clauses changed: %d, want %d", got, nc)
	}
	if s.Solve() != Sat {
		t.Error("formula should stay sat after ClearLearnts")
	}
}

// TestIncrementalActivationDifferential is the verdict-equivalence gate for
// the incremental backend: one long-lived solver answers a stream of
// assumption-scoped queries (each batch of extra clauses guarded by a fresh
// activation literal, retired with the unit clause ¬act afterwards), and
// every verdict must match a fresh solver built from scratch for that
// query.
func TestIncrementalActivationDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		nvars := 5 + r.Intn(6)
		inc := New()
		vars := make([]Var, nvars)
		for i := range vars {
			vars[i] = inc.NewVar()
		}
		randClause := func() []Lit {
			width := 1 + r.Intn(3)
			c := make([]Lit, 0, width)
			for j := 0; j < width; j++ {
				c = append(c, MkLit(vars[r.Intn(nvars)], r.Intn(2) == 0))
			}
			return c
		}
		var base [][]Lit
		baseOK := true
		for i := 0; i < nvars*2; i++ {
			c := randClause()
			base = append(base, c)
			if !inc.AddClause(c...) {
				baseOK = false
			}
		}
		for q := 0; q < 12; q++ {
			var extra [][]Lit
			for i := 0; i < 1+r.Intn(3); i++ {
				extra = append(extra, randClause())
			}
			// Fresh-solver reference verdict.
			fresh := New()
			for i := 0; i < nvars; i++ {
				fresh.NewVar()
			}
			freshOK := true
			for _, c := range append(append([][]Lit{}, base...), extra...) {
				if !fresh.AddClause(c...) {
					freshOK = false
				}
			}
			want := Unsat
			if freshOK {
				want = fresh.Solve()
			}
			// Incremental verdict under an activation literal.
			var got Status
			if !baseOK {
				got = Unsat
			} else {
				act := inc.NewVar()
				for _, c := range extra {
					inc.AddClause(append([]Lit{NegLit(act)}, c...)...)
				}
				got = inc.Solve(PosLit(act))
				if got == Sat {
					// The model must satisfy base and extras.
					for _, c := range append(append([][]Lit{}, base...), extra...) {
						sat := false
						for _, l := range c {
							if inc.Value(l.Var()) == l.IsPos() {
								sat = true
							}
						}
						if !sat {
							t.Fatalf("trial %d q %d: incremental model violates %v", trial, q, c)
						}
					}
				}
				inc.AddClause(NegLit(act))
			}
			if got != want {
				t.Fatalf("trial %d q %d: incremental=%v fresh=%v (base=%v extra=%v)",
					trial, q, got, want, base, extra)
			}
		}
	}
}

// TestLearntRetentionAcrossQueries checks that learnt clauses survive
// assumption-scoped queries (the whole point of pooling) and that verdicts
// are unaffected.
func TestLearntRetentionAcrossQueries(t *testing.T) {
	s := New()
	// PHP(5+1,5) guarded by an activation literal: unsat under act only.
	holes := 5
	pigeons := holes + 1
	act := s.NewVar()
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := []Lit{NegLit(act)}
		for h := 0; h < holes; h++ {
			lits = append(lits, PosLit(at[p][h]))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(act), NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	if s.Solve(PosLit(act)) != Unsat {
		t.Fatal("guarded PHP should be unsat under act")
	}
	learnt := s.LearntClauses()
	if learnt == 0 {
		t.Fatal("expected learnt clauses from PHP search")
	}
	// Learnt clauses persist into the next query and don't change verdicts.
	if s.Solve() != Sat {
		t.Error("formula should be sat without the assumption")
	}
	if s.Solve(PosLit(act)) != Unsat {
		t.Error("second guarded query should still be unsat")
	}
}
