package sym

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/sat"
	"repro/internal/smt"
)

// ErrBudget reports that the solver exhausted its conflict budget before
// deciding the query; callers treat it as a timeout.
var ErrBudget = errors.New("sym: solver budget exhausted")

// Counterexample witnesses the inequivalence of two expressions: a concrete
// input filesystem on which they produce different outcomes.
type Counterexample struct {
	Input      fs.State
	Ok1, Ok2   bool     // success/error outcome of each expression
	Out1, Out2 fs.State // final states; nil when the run errored
}

// String renders the counterexample for human consumption.
func (c *Counterexample) String() string {
	render := func(ok bool, out fs.State) string {
		if !ok {
			return "error"
		}
		return fs.StateString(out)
	}
	return fmt.Sprintf("input %s\n  first:  %s\n  second: %s",
		fs.StateString(c.Input), render(c.Ok1, c.Out1), render(c.Ok2, c.Out2))
}

// Options configures equivalence queries.
type Options struct {
	// Budget bounds SAT conflicts; 0 means unlimited. Exhaustion returns
	// ErrBudget.
	Budget int64
	// Config selects the SAT search configuration (zero = default). It
	// steers search order only and can never change a verdict.
	Config sat.Config
	// Metrics, when non-nil, accumulates the search counters the query
	// spends. Safe for concurrent use across queries.
	Metrics *Metrics
}

// Metrics accumulates SAT search counters across concurrent queries.
// All methods are safe for concurrent use.
type Metrics struct {
	decisions    atomic.Int64
	propagations atomic.Int64
	conflicts    atomic.Int64
	restarts     atomic.Int64
}

func (m *Metrics) add(c sat.Counters) {
	m.decisions.Add(c.Decisions)
	m.propagations.Add(c.Propagations)
	m.conflicts.Add(c.Conflicts)
	m.restarts.Add(c.Restarts)
}

// Counters returns the accumulated totals.
func (m *Metrics) Counters() sat.Counters {
	return sat.Counters{
		Decisions:    m.decisions.Load(),
		Propagations: m.propagations.Load(),
		Conflicts:    m.conflicts.Load(),
		Restarts:     m.restarts.Load(),
	}
}

// Equiv decides whether e1 ≡ e2: the same outcome (final state or error) on
// every input filesystem over the bounded domain of figure 8. It is sound
// and complete (lemmas 2 and 3). On inequivalence it returns a concrete
// counterexample that has been replayed through the concrete evaluator.
//
// Equiv is safe for concurrent use: every call constructs an isolated
// vocabulary, encoder and solver and touches no shared state, so
// independent queries parallelize embarrassingly — the parallel
// determinacy engine (internal/core) fans them across a worker pool.
func Equiv(e1, e2 fs.Expr, opts Options) (bool, *Counterexample, error) {
	dom := fs.Dom(e1)
	dom.AddAll(fs.Dom(e2))
	v := NewVocab(dom, e1, e2)
	en := NewEncoderConfig(v, opts.Config)
	if opts.Metrics != nil {
		defer func() { opts.Metrics.add(en.S.Counters()) }()
	}
	if opts.Budget > 0 {
		en.S.SetBudget(opts.Budget)
	}
	input := en.FreshInputState("in")
	out1 := en.Apply(e1, input)
	out2 := en.Apply(e2, input)
	en.S.Assert(en.StatesDiffer(out1, out2))
	switch en.S.Check() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Unknown:
		return false, nil, ErrBudget
	}
	cex := canonicalCounterexample(en, input, e1, e2)
	return false, cex, nil
}

// canonicalCounterexample derives the canonical counterexample input: the
// lexicographically minimal model over the vocabulary's sorted paths with
// kinds ordered none < dir < file. Minimality is a property of the
// asserted formula alone — not of the model the search happened to find,
// the solver configuration, the restart schedule or the worker count — so
// every solver config, fresh or pooled, extracts the byte-identical
// witness. That is what keeps report fingerprints stable.
//
// The walk pins one path at a time: for each path in order it finds the
// smallest kind consistent with the formula and the pins so far. The
// current model shortcuts the search — a kind the model already assigns
// needs no solver call, and every successful probe refreshes the model —
// so the typical cost is a handful of assumption-only Checks. Contents
// need no pinning: input contents are constant init tokens, so the kinds
// determine the witness completely.
//
// The replayed fs.Eval comparison at the end is a soundness self-check:
// the canonical input must actually distinguish the expressions.
func canonicalCounterexample(en *Encoder, input *State, e1, e2 fs.Expr) *Counterexample {
	s := en.S
	s.SetBudget(0) // minimization probes must not hit a query budget
	w, err := en.ModelState(input)
	if err != nil {
		// Callers only reach here straight after Check returned Sat.
		panic(fmt.Sprintf("sym: no model for counterexample extraction: %v", err))
	}
	pins := make([]smt.T, 0, len(en.V.Paths))
	for _, p := range en.V.Paths {
		ps := input.Lookup(p)
		cur := modelKind(w, p)
		for k := 0; k < cur; k++ {
			probe := append(pins[:len(pins):len(pins)], s.EnumIs(ps.Kind, k))
			if s.Check(probe...) != sat.Sat {
				continue
			}
			w2, err := en.ModelState(input)
			if err != nil {
				panic(fmt.Sprintf("sym: no model after canonicalization probe: %v", err))
			}
			w, cur = w2, k
			break
		}
		pins = append(pins, s.EnumIs(ps.Kind, cur))
	}
	out1, ok1 := fs.Eval(e1, w)
	out2, ok2 := fs.Eval(e2, w)
	if ok1 == ok2 && (!ok1 || out1.Equal(out2)) {
		panic(fmt.Sprintf(
			"sym: model does not distinguish expressions (encoding bug)\ninput: %s\ne1: %s\ne2: %s",
			fs.StateString(w), fs.String(e1), fs.String(e2)))
	}
	return &Counterexample{Input: w, Ok1: ok1, Ok2: ok2, Out1: out1, Out2: out2}
}

// modelKind returns the kind code of p in the concrete state.
func modelKind(st fs.State, p fs.Path) int {
	c, ok := st[p]
	switch {
	case !ok:
		return KindNone
	case c.Kind == fs.KindDir:
		return KindDir
	default:
		return KindFile
	}
}

// Idempotent decides whether e ≡ e; e (section 5). On failure the
// counterexample's first outcome is one application, the second is two.
func Idempotent(e fs.Expr, opts Options) (bool, *Counterexample, error) {
	return Equiv(e, fs.Seq{E1: e, E2: e}, opts)
}

// Commutes decides whether e1; e2 ≡ e2; e1 — the solver-backed semantic
// commutativity query of lemma 4 that the determinacy engine issues for
// every pair the syntactic analysis cannot prove. Inconclusive (budget
// exhaustion) surfaces as an error; treating it as non-commuting is
// always sound.
func Commutes(e1, e2 fs.Expr, opts Options) (bool, *Counterexample, error) {
	return Equiv(fs.Seq{E1: e1, E2: e2}, fs.Seq{E1: e2, E2: e1}, opts)
}
