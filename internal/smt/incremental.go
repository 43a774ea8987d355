package smt

// Incremental solving support. A Solver can answer many structurally
// related queries without rebuilding the term DAG or its Tseitin
// compilation:
//
//   - Push opens an assertion scope guarded by a fresh activation literal;
//     Assert inside the scope adds clauses of the form (¬act ∨ C) and Check
//     passes act as an extra assumption, so scoped constraints are live
//     only while the scope is open.
//   - Pop retires the scope with the unit clause ¬act, which satisfies
//     every clause the scope asserted. Those clauses stay in the SAT
//     database, inert: the solver has no pass that deletes them. The term
//     DAG and the compile memo are NOT rolled back: terms interned in any
//     scope stay compiled forever, because Tseitin definitional clauses
//     only define fresh variables and are sound at any scope depth.
//   - Learnt clauses survive Pop. Conflict analysis folds assumption
//     negations into learnt clauses, so each one is implied by the problem
//     clauses alone and remains sound for every later query.
//
// This is what makes per-worker solver pooling (internal/core) pay off:
// queries over the same vocabulary share hash-consing, compilation and
// learnt clauses, paying only for the activation-literal bookkeeping.

import (
	"errors"

	"repro/internal/sat"
)

// ErrNoModel is returned by BoolValue and EnumValue when no model is
// available: Check has not been called, its last call did not return
// sat.Sat, or the model was invalidated by a later Assert, Push or Pop.
var ErrNoModel = errors.New("smt: no model available (last Check did not return sat)")

// scope is one open Push frame.
type scope struct {
	act      sat.Lit // activation literal guarding the scope's assertions
	asserted int     // length of Solver.asserted when the scope opened
}

// Push opens a new assertion scope. Constraints asserted until the matching
// Pop are retired together; scopes nest and must pop LIFO.
func (s *Solver) Push() {
	act := sat.PosLit(s.sat.NewVar())
	s.scopes = append(s.scopes, scope{act: act, asserted: len(s.asserted)})
}

// Pop closes the innermost scope, retiring its assertions by asserting the
// negation of its activation literal. Terms created in the scope remain
// valid (and compiled); only the constraints go away.
func (s *Solver) Pop() {
	n := len(s.scopes)
	if n == 0 {
		panic("smt: Pop without matching Push")
	}
	sc := s.scopes[n-1]
	s.scopes = s.scopes[:n-1]
	s.asserted = s.asserted[:sc.asserted]
	if s.dropped > len(s.scopes)+1 {
		s.dropped = 0 // the cut-short assertion left with the scope
	}
	s.lastStatus = sat.Unknown
	s.sat.AddClause(sc.act.Neg())
}

// ScopeDepth returns the number of open Push scopes.
func (s *Solver) ScopeDepth() int { return len(s.scopes) }

// LearntClauses returns the number of learnt clauses currently retained by
// the underlying SAT solver.
func (s *Solver) LearntClauses() int { return s.sat.LearntClauses() }

// ClearLearnts drops the retained learnt clauses, e.g. before reusing a
// pooled solver for a very different query mix.
func (s *Solver) ClearLearnts() { s.sat.ClearLearnts() }
