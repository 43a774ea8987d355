package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/pkgdb"
	"repro/internal/puppet"
	"repro/internal/sat"
	"repro/internal/sym"
)

// countingProvider wraps a package-listing provider, counting and timing
// every call the compiler makes into it.
type countingProvider struct {
	p           pkgdb.Provider
	tr          *tracer
	parent, req int64
	calls       *atomic.Int64
}

func (c countingProvider) Lookup(platform, name string) (*pkgdb.Package, error) {
	sp := c.tr.begin("pkgdb", c.parent, c.req)
	defer c.tr.end(sp)
	c.calls.Add(1)
	return c.p.Lookup(platform, name)
}

func (c countingProvider) Closure(platform, name string) ([]*pkgdb.Package, error) {
	sp := c.tr.begin("pkgdb", c.parent, c.req)
	defer c.tr.end(sp)
	c.calls.Add(1)
	return c.p.Closure(platform, name)
}

func (c countingProvider) ReverseDependents(platform, name string) ([]*pkgdb.Package, error) {
	sp := c.tr.begin("pkgdb", c.parent, c.req)
	defer c.tr.end(sp)
	c.calls.Add(1)
	return c.p.ReverseDependents(platform, name)
}

// layerCounts accumulates the per-layer counters a traced run reports.
type layerCounts struct {
	pkgdbCalls                        atomic.Int64
	checks                            atomic.Int64
	eliminated, sequences             atomic.Int64
	pathsBefore, pathsAfter           atomic.Int64
	internHits                        atomic.Int64
	semQueries, semCacheHits          atomic.Int64
	idemChecks, terms                 atomic.Int64
	conflicts, decisions, propagation atomic.Int64
}

// outcome is what one manifest check decided.
type outcome struct {
	decided       bool // false: the check hit its time limit
	deterministic bool
	idemChecked   bool
	idempotent    bool
	elapsed       time.Duration // wall time from manifest text to verdict
	cpu           time.Duration // process CPU time over the same stretch
}

// check takes one manifest from text to verdict the way the rehearsal CLI
// does by default: parse, evaluate, compile, decide determinism, then —
// when idem is set and the manifest is deterministic — idempotence. With
// a tracer, every call into a layer is a span, package listings go
// through a counting provider, and idempotence is decided by rebuilding
// the query from public sym/smt calls so that encoding and solving are
// timed apart.
func check(src string, opts core.Options, idem bool, tr *tracer, lc *layerCounts, req int64) (outcome, error) {
	start, cpu := time.Now(), processCPU()
	root := tr.begin("check", 0, req)
	defer tr.end(root)

	sp := tr.begin("puppet.parse", root.id, req)
	stmts, err := puppet.Parse(src)
	tr.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("parse: %w", err)
	}
	facts := opts.Facts
	if facts == nil {
		facts = core.PlatformFacts(opts.Platform)
	}
	sp = tr.begin("puppet.eval", root.id, req)
	cat, err := puppet.Evaluate(stmts, puppet.Config{Facts: facts, NodeName: opts.NodeName})
	tr.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("evaluate: %w", err)
	}

	sp = tr.begin("core.from_catalog", root.id, req)
	if tr != nil {
		base := opts.Provider
		if base == nil {
			base = pkgdb.DefaultCatalog() // what core defaults to
		}
		opts.Provider = countingProvider{p: base, tr: tr, parent: sp.id, req: req, calls: &lc.pkgdbCalls}
	}
	sys, err := core.FromCatalog(cat, opts)
	tr.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("compile: %w", err)
	}

	sp = tr.begin("core.determinism", root.id, req)
	res, err := sys.CheckDeterminism()
	tr.end(sp)
	if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrCanceled) {
		// A classed timeout: the wall limit or the caller's CPU budget.
		return outcome{elapsed: time.Since(start), cpu: processCPU() - cpu}, nil
	}
	if err != nil {
		return outcome{}, fmt.Errorf("determinism: %w", err)
	}
	if lc != nil {
		st := res.Stats
		lc.checks.Add(1)
		lc.eliminated.Add(int64(st.Eliminated))
		lc.sequences.Add(int64(st.Sequences))
		lc.pathsBefore.Add(int64(st.TotalPaths))
		lc.pathsAfter.Add(int64(st.Paths))
		lc.internHits.Add(st.InternHits)
		lc.semQueries.Add(int64(st.SemQueries))
		lc.semCacheHits.Add(int64(st.SemCacheHits))
	}
	out := outcome{decided: true, deterministic: res.Deterministic}
	if idem && res.Deterministic {
		out.idemChecked = true
		sp = tr.begin("core.idempotence", root.id, req)
		if tr == nil {
			r, err := sys.CheckIdempotence()
			if err != nil {
				return outcome{}, fmt.Errorf("idempotence: %w", err)
			}
			out.idempotent = r.Idempotent
		} else {
			out.idempotent, err = tracedIdempotence(sys, tr, sp.id, req, lc)
			if err != nil {
				return outcome{}, fmt.Errorf("idempotence: %w", err)
			}
		}
		tr.end(sp)
	}
	out.elapsed, out.cpu = time.Since(start), processCPU()-cpu
	return out, nil
}

// tracedIdempotence decides e ≡ e;e for one valid order of the manifest's
// unpruned resource models — the query System.CheckIdempotence issues —
// with the symbolic encoding and the SAT search in separate spans.
func tracedIdempotence(sys *core.System, tr *tracer, parent, req int64, lc *layerCounts) (bool, error) {
	g := sys.ExprGraph()
	order, err := g.TopoSort()
	if err != nil {
		return false, err
	}
	exprs := make([]fs.Expr, 0, len(order))
	for _, n := range order {
		exprs = append(exprs, g.Label(n))
	}
	e := fs.SeqAll(exprs...)
	twice := fs.Seq{E1: e, E2: e}

	sp := tr.begin("sym.encode", parent, req)
	dom := fs.Dom(e)
	dom.AddAll(fs.Dom(twice))
	en := sym.NewEncoder(sym.NewVocab(dom, e, twice))
	input := en.FreshInputState("in")
	en.S.Assert(en.StatesDiffer(en.Apply(e, input), en.Apply(twice, input)))
	tr.end(sp)

	sp = tr.begin("sat.solve", parent, req)
	status := en.S.Check()
	tr.end(sp)

	co := en.S.Counters()
	lc.idemChecks.Add(1)
	lc.terms.Add(int64(en.S.NumTerms()))
	lc.conflicts.Add(co.Conflicts)
	lc.decisions.Add(co.Decisions)
	lc.propagation.Add(co.Propagations)
	switch status {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	}
	return false, errors.New("solver returned unknown without a budget")
}
