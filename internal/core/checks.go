package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/sat"
	"repro/internal/sym"
)

// sequenceExpr returns the manifest as a single FS expression: one valid
// ordering of the (unpruned) resource models. By section 5 this is only
// meaningful for deterministic manifests, where all orderings are
// equivalent.
func (s *System) sequenceExpr() (fs.Expr, error) {
	order, err := s.g.TopoSort()
	if err != nil {
		return nil, err
	}
	exprs := make([]fs.Expr, 0, len(order))
	for _, n := range order {
		exprs = append(exprs, s.g.Label(n).orig)
	}
	return fs.SeqAll(exprs...), nil
}

// IdempotenceResult is the outcome of CheckIdempotence.
type IdempotenceResult struct {
	Idempotent     bool
	Counterexample *sym.Counterexample // input where e and e;e differ
	Duration       time.Duration
}

// solveBounds returns the limits a check's solve runs under: the
// deadline Options.Timeout sets from start, and a stop flag raised when
// Options.Context ends. The caller must call release once the solve is
// over.
func (s *System) solveBounds(start time.Time) (deadline time.Time, stop *atomic.Bool, release func() bool) {
	if s.opts.Timeout > 0 {
		deadline = start.Add(s.opts.Timeout)
	}
	stop = new(atomic.Bool)
	release = func() bool { return true }
	if s.opts.Context != nil {
		release = context.AfterFunc(s.opts.Context, func() { stop.Store(true) })
	}
	return deadline, stop, release
}

// canceled returns an error wrapping ErrCanceled once Options.Context has
// ended, and nil otherwise.
func (s *System) canceled() error {
	if s.opts.Context == nil {
		return nil
	}
	if cerr := s.opts.Context.Err(); cerr != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, cerr)
	}
	return nil
}

// abandoned classes a solve that gave up without a verdict: canceled
// when Options.Context ended, timed out otherwise.
func (s *System) abandoned() error {
	if err := s.canceled(); err != nil {
		return err
	}
	return ErrTimeout
}

// CheckIdempotence decides e ≡ e; e for the manifest's sequenced
// expression (section 5). The caller should establish determinism first:
// the check picks one valid order and is only meaningful when all orders
// are equivalent. It honours Options.Timeout (ErrTimeout) and
// Options.Context (an error wrapping ErrCanceled).
func (s *System) CheckIdempotence() (*IdempotenceResult, error) {
	start := time.Now()
	if err := s.canceled(); err != nil {
		return nil, err
	}
	e, err := s.sequenceExpr()
	if err != nil {
		return nil, err
	}
	deadline, stop, release := s.solveBounds(start)
	idem, cex, err := sym.Idempotent(e, sym.Options{Deadline: deadline, Stop: stop})
	release()
	if errors.Is(err, sym.ErrBudget) {
		return nil, s.abandoned()
	}
	if err != nil {
		return nil, err
	}
	return &IdempotenceResult{
		Idempotent:     idem,
		Counterexample: cex,
		Duration:       time.Since(start),
	}, nil
}

// InvariantResult is the outcome of an invariant check.
type InvariantResult struct {
	Holds bool
	// Input violates the invariant when Holds is false: applying the
	// manifest from Input succeeds but leaves the path in another state.
	Input    fs.State
	Duration time.Duration
}

// CheckFileInvariant verifies the section-5 invariant "whenever the
// manifest succeeds, path is a file with exactly the given content" —
// useful to detect one resource silently overwriting another's file.
// Like CheckIdempotence it honours Options.Timeout and Options.Context.
func (s *System) CheckFileInvariant(path fs.Path, content string) (*InvariantResult, error) {
	start := time.Now()
	if err := s.canceled(); err != nil {
		return nil, err
	}
	e, err := s.sequenceExpr()
	if err != nil {
		return nil, err
	}
	dom := fs.Dom(e)
	dom.Add(path)
	v := sym.NewVocabWithLiterals(dom, []string{content}, e)
	en := sym.NewEncoder(v)
	deadline, stop, release := s.solveBounds(start)
	defer release()
	en.S.SetDeadline(deadline)
	en.S.SetStop(stop)
	input := en.FreshInputState("in")
	out := en.Apply(e, input)
	want := sym.PathState{
		Kind:    en.S.EnumConst(v.KindSort, sym.KindFile),
		Content: en.S.EnumConst(v.ContentSort, v.LiteralToken(content)),
	}
	got := out.Lookup(path)
	holds := en.S.And(
		en.S.EnumEq(got.Kind, want.Kind),
		en.S.EnumEq(got.Content, want.Content),
	)
	en.S.Assert(en.S.And(en.Ok(out), en.S.Not(holds)))
	switch en.S.Check() {
	case sat.Unsat:
		return &InvariantResult{Holds: true, Duration: time.Since(start)}, nil
	case sat.Unknown:
		return nil, s.abandoned()
	}
	in, err := en.ModelState(input)
	if err != nil {
		return nil, err
	}
	// Replay as a sanity check: the manifest must succeed from in and
	// leave the path in a different state.
	outState, ok := fs.Eval(e, in)
	if !ok {
		return nil, fmt.Errorf("core: invariant model failed to replay (run errored)")
	}
	if c, present := outState[path]; present && c == fs.FileContent(content) {
		return nil, fmt.Errorf("core: invariant model failed to replay (state matches)")
	}
	return &InvariantResult{Holds: false, Input: in, Duration: time.Since(start)}, nil
}
