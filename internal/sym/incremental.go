package sym

// Incremental query sessions. Equiv builds an isolated vocabulary, encoder
// and solver per query — perfectly parallel, but every query pays Tseitin
// compilation and variable setup from scratch and discards all learnt
// clauses. A Session amortizes that: it owns one encoder and one shared
// symbolic input state over a fixed vocabulary, answers each query inside a
// Push/Pop scope of the underlying smt.Solver, and memoizes symbolic
// application so repeated sub-expressions (the common case in pairwise
// commutativity checking, where each resource appears in many pairs) encode
// once.
//
// Soundness of the shared vocabulary: a query over any domain D ⊇
// dom(e1) ∪ dom(e2) decides the same equivalence as the minimal domain
// (the paper's bounded-domain lemma, §4.1). Paths untouched by both
// expressions carry syntactically identical symbolic states on both sides,
// so their disequality terms fold to false during construction; only the
// touched paths contribute to the query. Content tokens are likewise a
// superset, which only widens the space of distinguishable contents — and
// contents never influence control flow (FS predicates don't read them).
//
// A Session is NOT safe for concurrent use; the parallel engine keeps one
// session per worker (internal/core's solver pool).
//
// Each query's constraints live in one Push/Pop scope. Pop retires them
// with a unit clause, so they stay in the solver's clause database,
// satisfied and inert, for the session's lifetime; the learnt clauses
// and the compiled terms are what later queries reuse.

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/fs"
	"repro/internal/sat"
)

// Digest returns a canonical content hash of the vocabulary: equal digests
// mean identical path domains and token sets, hence interchangeable
// encoders. It keys the solver pools of internal/core.
func (v *Vocab) Digest() fs.Digest {
	h := sha256.New()
	var n [4]byte
	write := func(s string) {
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint32(n[:], uint32(len(v.Paths)))
	h.Write(n[:])
	for _, p := range v.Paths {
		write(string(p))
	}
	for _, t := range v.Tokens {
		write(t)
	}
	var d fs.Digest
	h.Sum(d[:0])
	return d
}

// SessionStats counts the work a session has amortized.
type SessionStats struct {
	Queries        int64        // equivalence queries answered
	ApplyHits      int64        // symbolic applications served by the memo
	ApplyMisses    int64        // symbolic applications that walked a subtree
	LearntRetained int          // learnt clauses currently live in the solver
	Search         sat.Counters // cumulative SAT search counters
}

// Session answers a stream of equivalence queries over one fixed vocabulary
// with a single long-lived encoder and solver.
type Session struct {
	en    *Encoder
	input *State
	apply map[fs.Digest]*State // DigestExpr(e) -> Apply(e, input)
	stats SessionStats
}

// NewSession creates a session over the vocabulary. Every expression later
// passed to Equiv or Commutes must draw its paths and content literals from
// this vocabulary (callers build it from the union of all expressions they
// will query — see core.checkDeterminism).
func NewSession(v *Vocab) *Session {
	en := NewEncoder(v)
	return &Session{
		en:    en,
		input: en.FreshInputState("in"),
		apply: make(map[fs.Digest]*State),
	}
}

// Stats returns the session's counters.
func (s *Session) Stats() SessionStats {
	s.stats.LearntRetained = s.en.S.LearntClauses()
	return s.stats
}

// applyMemo returns Apply(e, input), memoized per subtree by digest. Seq
// spines recurse through the memo, so Apply(e1, input) is computed once
// even though e1 heads many different Seq composites (every commutativity
// query pairs it with a different second component). The memo survives
// Pop: symbolic application creates only terms (never assertions), and the
// term DAG and its compilation are permanent. A miss walks exactly one
// component subtree (the Seq right child, or the whole non-Seq
// expression).
func (s *Session) applyMemo(e fs.Expr) *State {
	d := fs.DigestExpr(e)
	if st, ok := s.apply[d]; ok {
		s.stats.ApplyHits++
		return st
	}
	st := s.applyCompute(e)
	if s.en.S.Interrupted() {
		return st // cut short: never memoized
	}
	s.apply[d] = st
	s.stats.ApplyMisses++
	return st
}

// applyCompute performs the (unmemoized) symbolic application of e.
func (s *Session) applyCompute(e fs.Expr) *State {
	if seq, ok := e.(fs.Seq); ok {
		return s.en.Apply(seq.E2, s.applyMemo(seq.E1))
	}
	return s.en.Apply(e, s.input)
}

// sessionLearntCap bounds the learnt clauses a session carries from query
// to query. Retention pays off while the learnt database is hot and small;
// past a few thousand clauses, propagation drag on every later query
// outweighs the pruning the clauses buy (measured on the pairwise
// commutativity workload), so the session periodically starts the learnt
// database over. Problem clauses, compiled terms and the apply memo are
// unaffected.
const sessionLearntCap = 2000

// SessionQueryCap bounds the queries one pooled session answers before
// its pool retires it. Every query's Push/Pop scope leaves its activation
// variable, clauses and compiled terms behind, so a session grows with
// each query; retiring it after a fixed count keeps the sessions of a
// long-lived process bounded.
const SessionQueryCap = 256

// Equiv decides e1 ≡ e2 over the session's vocabulary, like the package
// function Equiv but reusing the session's solver. The query runs in a
// Push/Pop scope: its assertion is retired afterwards while learnt clauses
// and compiled terms stay for the next query.
func (s *Session) Equiv(e1, e2 fs.Expr, opts Options) (bool, *Counterexample, error) {
	s.stats.Queries++
	if s.en.S.LearntClauses() > sessionLearntCap {
		s.en.S.ClearLearnts()
	}
	before := s.en.S.Counters()
	defer func() {
		delta := s.en.S.Counters().Sub(before)
		s.stats.Search = s.stats.Search.Add(delta)
		if opts.Metrics != nil {
			opts.Metrics.add(delta)
		}
	}()
	s.en.S.SetBudget(opts.Budget)
	s.en.S.SetDeadline(opts.Deadline)
	s.en.S.SetStop(opts.Stop)
	out1 := s.applyMemo(e1)
	out2 := s.applyMemo(e2)
	s.en.S.Push()
	defer s.en.S.Pop()
	s.en.S.Assert(s.en.StatesDiffer(out1, out2))
	switch s.en.S.Check() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Unknown:
		return false, nil, ErrBudget
	}
	// Extract before the deferred Pop invalidates the model.
	cex, err := canonicalCounterexample(s.en, s.input, e1, e2)
	return false, cex, err
}

// Commutes decides e1; e2 ≡ e2; e1 within the session.
func (s *Session) Commutes(e1, e2 fs.Expr, opts Options) (bool, *Counterexample, error) {
	return s.Equiv(fs.Seq{E1: e1, E2: e2}, fs.Seq{E1: e2, E2: e1}, opts)
}

// Idempotent decides e ≡ e; e within the session.
func (s *Session) Idempotent(e fs.Expr, opts Options) (bool, *Counterexample, error) {
	return s.Equiv(e, fs.Seq{E1: e, E2: e}, opts)
}
