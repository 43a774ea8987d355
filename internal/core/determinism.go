package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commute"
	"repro/internal/diff"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/prune"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/sym"
)

// Counterexample witnesses non-determinism: two valid orders of the same
// resources that produce different outcomes from the same initial
// filesystem.
type Counterexample struct {
	Input          fs.State
	Order1, Order2 []string
	Ok1, Ok2       bool
	Out1, Out2     fs.State
}

// Stats summarizes the work a determinacy check performed.
type Stats struct {
	Resources   int           // resources in the compiled graph
	Eliminated  int           // resources removed by elimination
	PrunedPaths int           // paths whose writes were pruned
	TotalPaths  int           // modeled paths before analyses (fig. 11a "No")
	Paths       int           // modeled paths after analyses (fig. 11a "Yes")
	Sequences   int           // linearizations encoded (2 when the first pair's probe ends the check)
	Duration    time.Duration // wall-clock time of the check

	// Workers is the worker-pool size semantic-commutativity queries ran
	// under (Options.Parallelism after defaulting).
	Workers int
	// SemQueries counts the solver queries this check executed — the
	// shared-cache misses among its semantic-commutativity decisions.
	SemQueries int
	// SemCacheHits counts decisions served by the process-wide
	// content-addressed cache (warmed by earlier checks of manifests with
	// overlapping resources).
	SemCacheHits int
	// SolverReuses counts solver queries answered by a pooled incremental
	// solver that had already served earlier queries (0 with
	// Options.FreshSolvers or without SemanticCommute).
	SolverReuses int
	// LearntRetained is the number of learnt clauses alive across the
	// check's solver pool when the check finished — knowledge later
	// queries inherit instead of rediscovering.
	LearntRetained int

	// InternHits is always 0. Expressions are plain trees with no
	// hash-consing; the field stays because the benchmark harness reads it.
	InternHits int64
	// EncodeMemoHits counts symbolic applications the check's pooled
	// sessions answered from their subtree memos instead of re-encoding.
	// Read as a before/after delta over parked sessions, so, like
	// LearntRetained, it is approximate when workers hold sessions across
	// the snapshot.
	EncodeMemoHits int64
	// DiskCacheHits counts semantic-commutativity decisions answered by
	// the on-disk verdict tier (0 unless the options are bound to a
	// Substrate built with SubstrateConfig.CacheDir).
	DiskCacheHits int
	// RemoteCacheHits counts semantic-commutativity decisions answered by
	// the cluster verdict ring (0 without a remote tier attached — i.e.
	// outside a rehearsald cluster).
	RemoteCacheHits int
	// WorkerPanics counts panics recovered inside semantic-commutativity
	// workers. The first panic aborts the check with a *PanicError, so a
	// successfully returned result always reports 0; the counter exists
	// for the error path's diagnostics (see CheckDeterminism's error
	// contract) and for tests.
	WorkerPanics int

	// Core solver search counters, cumulative over every SAT query the
	// check ran (semantic-commutativity queries across all workers, plus
	// the final determinacy disjunction).
	SolverDecisions    int64
	SolverPropagations int64
	SolverConflicts    int64
	SolverRestarts     int64

	// Differential-verification counters, populated only by the VerifyDiff
	// path (all zero on a full check).

	// DiffChanged counts head resources that cannot inherit base verdicts:
	// compiled models that changed plus resources added since base.
	DiffChanged int
	// DiffUnchanged counts head resources whose compiled-model digests
	// match base.
	DiffUnchanged int
	// PairsReused counts distinct semantic-commutativity pairs between two
	// unchanged resources whose verdicts were inherited from the warm
	// verdict tiers (memory or disk) with zero solver work.
	PairsReused int
	// PairsReverified counts distinct semantic-commutativity pairs that
	// executed a solver query in this check — pairs touching a changed or
	// added resource, plus any inherit misses.
	PairsReverified int
	// InheritMisses counts the subset of PairsReverified whose members
	// were both unchanged: the base verdict was not in the warm tiers (a
	// cold cache, or context-dependent pruning shifted the pair's content
	// address), so soundness forced a re-solve.
	InheritMisses int
}

// SemCacheHitRate returns the fraction of semantic-commutativity
// decisions answered without running the solver; 0 when no semantic
// decisions were made.
func (s Stats) SemCacheHitRate() float64 {
	total := s.SemQueries + s.SemCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.SemCacheHits) / float64(total)
}

// DeterminismResult is the outcome of CheckDeterminism.
type DeterminismResult struct {
	Deterministic  bool
	Counterexample *Counterexample // set when non-deterministic
	Stats          Stats
}

// workNode is a mutable copy of a graph node used during one check.
type workNode struct {
	name    string // empty for a barrier
	barrier bool
	expr    fs.Expr
	orig    fs.Expr
	sum     *commute.Summary

	// unchanged marks the resource's compiled model as digest-identical to
	// the base manifest's (differential checks only; always false on a
	// full check). Pair classification reads it: a pair of two unchanged
	// resources is expected to inherit its verdict from the warm tiers.
	unchanged bool

	digOnce sync.Once
	dig     fs.Digest
}

// digest returns the canonical content hash of the node's current model,
// computed once per workNode (pruning replaces the workNode, so the memo
// never goes stale). Safe for concurrent use by pool workers.
func (w *workNode) digest() fs.Digest {
	w.digOnce.Do(func() { w.dig = fs.DigestExpr(w.expr) })
	return w.dig
}

// CheckDeterminism decides whether the manifest's resource graph is
// deterministic (definition 1): every input filesystem leads to exactly
// one outcome regardless of the order resources are applied in. The check
// is sound and complete; see DESIGN.md for the replay-validated fallback
// that keeps it exact when elimination or pruning are enabled.
func (s *System) CheckDeterminism() (*DeterminismResult, error) {
	return s.checkDeterminism(s.opts, nil)
}

// VerifyDiff runs the differential determinacy check: head is verified in
// full soundness, but the pairwise commutativity matrix is partitioned by
// the resource-level delta against base — pairs of digest-unchanged
// resources inherit the base run's verdicts from the warm content-
// addressed tiers (memory cache or the substrate's disk tier) with zero
// solver work, and only pairs touching a changed or added resource enter
// the worker pool. The verdict is identical to head.CheckDeterminism()
// at any delta: inheritance is content-addressed (identical models →
// identical cache keys), and an unchanged pair whose key misses the warm
// tiers — a cold cache, or pruning shifted under it — is simply
// re-solved and counted as an inherit miss. Both systems should be loaded
// under the same platform/provider options; head's options drive the
// check.
func VerifyDiff(base, head *System) (*DeterminismResult, error) {
	return head.CheckDeterminismDiff(base)
}

// CheckDeterminismDiff is VerifyDiff as a method on the head system.
func (s *System) CheckDeterminismDiff(base *System) (*DeterminismResult, error) {
	d := diff.Compute(base.ResourceDigests(), s.ResourceDigests())
	return s.checkDeterminism(s.opts, d)
}

// checkDeterminism runs one determinacy check. delta, when non-nil, is
// the resource-level difference against a base manifest: it drives the
// reused/re-verified pair accounting and marks unchanged resources, but
// never weakens the analysis — every pair is still decided, just
// preferentially from the warm verdict tiers.
func (s *System) checkDeterminism(opts Options, delta *diff.Delta) (*DeterminismResult, error) {
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}

	var unchanged map[string]bool
	if delta != nil {
		unchanged = delta.UnchangedSet()
	}

	// Working labels: analyses must not mutate the System. The resource
	// graph itself is only read; the graph the later phases work on is
	// built once, from the survivors of elimination.
	work := s.workLabels(unchanged)
	// Reachability, once per check: elimination only removes nodes without
	// dependents, which never changes reachability among the survivors, so
	// the same rows serve elimination and enumeration.
	reach, err := s.g.Reach()
	if err != nil {
		return nil, err
	}

	cc := newCommuteChecker(opts)
	cc.diffAware = delta != nil
	defer cc.cancel() // release the derived context on every exit path
	stats := Stats{Resources: s.Size(), TotalPaths: s.TotalPaths(), Workers: cc.workers}
	if delta != nil {
		stats.DiffChanged = len(delta.Changed) + len(delta.Added)
		stats.DiffUnchanged = len(delta.Unchanged)
	}

	// Incremental solving: route this check's semantic queries through a
	// pooled solver per worker, sharing one vocabulary built from the full
	// pre-analysis expression set. Elimination and pruning only ever
	// shrink expressions and their domains, so this vocabulary spans every
	// later query; a query over a superset domain decides the same
	// equivalence (bounded-domain lemma), keeping verdicts identical to
	// the fresh-solver path.
	if opts.SemanticCommute && !opts.FreshSolvers {
		cc.usePool(s.poolVocab())
	}
	// Pools outlive checks (re-checks reuse warm sessions), so the memo-hit
	// stat below is the delta this check contributed.
	var applyHitsBase int64
	if cc.pool != nil {
		applyHitsBase = cc.pool.applyHits()
	}

	// Step 1 (section 4.4): eliminate resources that commute with every
	// resource that may run after them. Removal order matters for replay:
	// the first-removed resource commutes with everything else and can be
	// placed last in any linearization.
	var eliminated []*workNode
	keep := func(graph.Node) bool { return true }
	if opts.Elimination {
		var alive graph.Bits
		eliminated, alive, err = eliminate(s.g, work, reach, cc)
		if err != nil {
			return nil, err
		}
		stats.Eliminated = len(eliminated)
		keep = alive.Has
	}
	wg := graph.Induced(s.g, keep, func(n graph.Node, _ *node) *workNode { return work[n] })

	// Step 2 (section 4.4): prune definitive writes to paths that only a
	// single resource touches.
	if opts.Pruning {
		pruned, err := pruneGraph(wg, cc)
		if err != nil {
			return nil, err
		}
		stats.PrunedPaths = pruned
	}

	// Step 3 (sections 4.1–4.3): encode all POR-reduced linearizations
	// symbolically and ask the solver for an input that distinguishes two
	// of them.
	nodes := wg.Nodes()
	exprs := make([]fs.Expr, 0, len(nodes))
	dom := make(fs.PathSet)
	for _, n := range nodes {
		exprs = append(exprs, wg.Label(n).expr)
		dom.AddDom(wg.Label(n).expr)
	}
	vocab := sym.NewVocab(dom, exprs...)
	stats.Paths = len(vocab.Paths)
	en := sym.NewEncoder(vocab)
	if !deadline.IsZero() {
		en.S.SetDeadline(deadline)
	}
	// Cancellation reaches the final determinacy solve through the SAT
	// backend's stop flag; the deadline alone would let a canceled check
	// run on inside the search.
	stop := new(atomic.Bool)
	en.S.SetStop(stop)
	defer context.AfterFunc(cc.ctx, func() { stop.Store(true) })()
	input := en.FreshInputState("in")
	if opts.WellFormedInit {
		en.S.Assert(en.WellFormed(input))
	}

	// The solver answers Unknown only once the check's deadline or context
	// has ended.
	interrupted := func() error {
		if err := cc.err(); err != nil {
			return err
		}
		return ErrTimeout
	}
	// The probe: when the second linearization arrives, ask whether the
	// first two can differ, as an assumption so that an Unsat answer leaves
	// the solver as it was. A witness that replays on the full graph ends
	// the enumeration; otherwise the check goes on to the full disjunction.
	var cex *Counterexample
	probe := func(outs []*sym.State, orders [][]graph.Node) (bool, error) {
		if len(outs) != 2 {
			return false, nil
		}
		if finalDiffTestHook != nil {
			finalDiffTestHook(1)
		}
		switch en.S.Check(en.StatesDiffer(outs[0], outs[1])) {
		case sat.Unsat:
			return false, nil
		case sat.Unknown:
			return false, interrupted()
		}
		in, err := en.ModelState(input)
		if err != nil {
			return false, err
		}
		cex = s.replay(wg, eliminated, in, orders[0], orders[1], opts.WellFormedInit)
		return cex != nil, nil
	}
	outs, orders, err := enumerate(wg, reach, en, input, opts, deadline, cc, probe)
	if err != nil {
		return nil, err
	}
	stats.Sequences = len(outs)
	stats.WorkerPanics = int(cc.panics.Load())
	stats.SemQueries = int(cc.queries.Load())
	stats.SemCacheHits = int(cc.hits.Load())
	stats.SolverReuses = int(cc.reuses.Load())
	stats.DiskCacheHits = int(cc.diskHits.Load())
	stats.RemoteCacheHits = int(cc.remoteHits.Load())
	if delta != nil {
		stats.PairsReused = int(cc.reusedPairs.Load())
		stats.PairsReverified = int(cc.reverifiedPairs.Load())
		stats.InheritMisses = int(cc.inheritMisses.Load())
	}
	if cc.pool != nil {
		stats.LearntRetained = cc.pool.snapshot()
		if d := cc.pool.applyHits() - applyHitsBase; d > 0 {
			stats.EncodeMemoHits = d
		}
	}
	// Search counters span the worker queries (cc.satm) plus the final
	// determinacy disjunction on the big encoder below; filled at return.
	fillSearch := func() {
		co := cc.satm.Counters().Add(en.S.Counters())
		stats.SolverDecisions = co.Decisions
		stats.SolverPropagations = co.Propagations
		stats.SolverConflicts = co.Conflicts
		stats.SolverRestarts = co.Restarts
	}

	if cex != nil {
		fillSearch()
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: false, Counterexample: cex, Stats: stats}, nil
	}
	if len(outs) <= 1 {
		// A single linearization after POR is deterministic by
		// construction: every order was proven equivalent to it.
		fillSearch()
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: true, Stats: stats}, nil
	}

	// All-pairwise equality is equivalent to all-equal-to-first under a
	// shared input (equality of concrete outcomes is transitive), so a
	// linear number of disequalities suffices.
	diffTerms := make([]smt.T, len(outs))
	ts := make([]smt.T, 0, len(outs)-1)
	for i := 1; i < len(outs); i++ {
		if err := cc.err(); err != nil {
			return nil, err
		}
		if finalDiffTestHook != nil {
			finalDiffTestHook(i)
		}
		diffTerms[i] = en.StatesDiffer(outs[0], outs[i])
		ts = append(ts, diffTerms[i])
	}
	en.S.Assert(en.S.Or(ts...))

	switch en.S.Check() {
	case sat.Unsat:
		fillSearch()
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: true, Stats: stats}, nil
	case sat.Unknown:
		return nil, interrupted()
	}
	fillSearch()

	// A model: decode the input and identify a distinguishing pair.
	in, err := en.ModelState(input)
	if err != nil {
		return nil, err
	}
	second := 1
	for i := 1; i < len(outs); i++ {
		differs, err := en.S.BoolValue(diffTerms[i])
		if err != nil {
			return nil, err
		}
		if differs {
			second = i
			break
		}
	}

	cex = s.replay(wg, eliminated, in, orders[0], orders[second], opts.WellFormedInit)
	if cex != nil {
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: false, Counterexample: cex, Stats: stats}, nil
	}

	// Neither the distinguishing input nor its survivor-minimal shrink
	// replayed on the full graph: the abstraction introduced by
	// elimination/pruning was too coarse for this manifest. Fall back to
	// the exact configuration (POR only).
	exact := opts
	exact.Elimination = false
	exact.Pruning = false
	if opts.Elimination || opts.Pruning {
		if exactFallbackTestHook != nil {
			exactFallbackTestHook()
		}
		res, err := s.checkDeterminism(exact, delta)
		if err != nil {
			return nil, err
		}
		res.Stats.TotalPaths = stats.TotalPaths
		// The reduced attempt is part of this check's cost too.
		res.Stats.Duration = time.Since(start)
		return res, nil
	}
	// POR and the base encoding are exact; an unreplayable model here is a
	// bug in the encoder.
	panic("core: determinism model failed to replay under the exact configuration")
}

// workLabels returns a check's working copy of every node's label,
// indexed by node handle; unchanged marks digest-unchanged resources of a
// differential check.
func (s *System) workLabels(unchanged map[string]bool) []*workNode {
	work := make([]*workNode, s.g.Cap())
	for _, n := range s.g.Nodes() {
		l := s.g.Label(n)
		if l.barrier() {
			work[n] = &workNode{barrier: true, expr: l.expr, orig: l.orig, sum: l.sum}
			continue
		}
		name := l.res.String()
		work[n] = &workNode{name: name, expr: l.expr, orig: l.orig, sum: l.sum, unchanged: unchanged[name]}
	}
	return work
}

// poolVocab is the vocabulary of a check's pooled solver sessions, built
// from the full pre-analysis expression set.
func (s *System) poolVocab() *sym.Vocab {
	dom := make(fs.PathSet)
	exprs := make([]fs.Expr, 0, s.g.Len())
	for _, n := range s.g.Nodes() {
		e := s.g.Label(n).expr
		exprs = append(exprs, e)
		dom.AddDom(e)
	}
	return sym.NewVocab(dom, exprs...)
}

// replay applies the two orders (plus eliminated resources, in reverse
// elimination order) to the decoded input using the unpruned resource
// models and the concrete evaluator. It returns nil when the outcomes do
// not actually differ.
//
// The input is shrunk against the two survivor orders first, which are a
// handful of resources even when elimination removed a thousand. The
// solver's input is only constrained on the survivors, and state it holds
// for no reason can make an eliminated resource error in both full orders,
// masking the divergence (DESIGN "Replay-validated fast path"). The full
// orders then finish the shrinking from the survivor-minimal input, or
// from the solver's own input when only that one diverges, so the witness
// is 1-minimal on the full graph after a few whole-program evaluations.
func (s *System) replay(wg *graph.Graph[*workNode], eliminated []*workNode, in fs.State, order1, order2 []graph.Node, keepWellFormed bool) *Counterexample {
	names1, s1 := survivorSeq(wg, order1)
	names2, s2 := survivorSeq(wg, order2)
	var suffixNames []string
	suffix := make([]fs.Expr, 0, len(eliminated))
	for i := len(eliminated) - 1; i >= 0; i-- {
		suffixNames = append(suffixNames, eliminated[i].name)
		suffix = append(suffix, eliminated[i].orig)
	}
	rest := fs.SeqAll(suffix...)
	e1, e2 := fs.SeqAll(s1, rest), fs.SeqAll(s2, rest)

	m, _ := minimizeInput(s1, s2, in, run(s1, s2, in), keepWellFormed)
	o := run(e1, e2, m)
	if !o.differ() {
		if o = run(e1, e2, in); !o.differ() {
			return nil
		}
		m = in
	}
	m, o = minimizeInput(e1, e2, m, o, keepWellFormed)
	return &Counterexample{
		Input:  m,
		Order1: append(names1, suffixNames...),
		Order2: append(names2, suffixNames...),
		Ok1:    o.ok1,
		Ok2:    o.ok2,
		Out1:   o.out1,
		Out2:   o.out2,
	}
}

// survivorSeq returns the resource names of order and its unpruned models
// in sequence; barriers are skipped.
func survivorSeq(wg *graph.Graph[*workNode], order []graph.Node) ([]string, fs.Expr) {
	var names []string
	var exprs []fs.Expr
	for _, n := range order {
		if l := wg.Label(n); !l.barrier {
			names = append(names, l.name)
			exprs = append(exprs, l.orig)
		}
	}
	return names, fs.SeqAll(exprs...)
}

// outcomes are what two sequenced expressions produce from one input.
type outcomes struct {
	out1, out2 fs.State
	ok1, ok2   bool
}

// run evaluates e1 and e2 from in.
func run(e1, e2 fs.Expr, in fs.State) outcomes {
	var o outcomes
	o.out1, o.ok1 = fs.Eval(e1, in)
	o.out2, o.ok2 = fs.Eval(e2, in)
	return o
}

// differ reports whether the two outcomes are different.
func (o outcomes) differ() bool {
	return o.ok1 != o.ok2 || (o.ok1 && !o.out1.Equal(o.out2))
}

// minimizeInput greedily removes entries from the witness filesystem while
// the two orders still diverge, so reported counterexamples mention only
// the state that matters. Removing one entry can unblock another (e.g. a
// file inside a directory), so the pass repeats until a fixpoint. o is the
// two orders' outcomes from in; the outcomes from the returned input come
// back with it.
func minimizeInput(e1, e2 fs.Expr, in fs.State, o outcomes, keepWellFormed bool) (fs.State, outcomes) {
	min := in.Clone()
	for changed := true; changed; {
		changed = false
		for _, p := range min.Paths() {
			saved := min[p]
			delete(min, p)
			if !keepWellFormed || min.IsWellFormed() {
				if r := run(e1, e2, min); r.differ() {
					o = r
					changed = true
					continue
				}
			}
			min[p] = saved
		}
	}
	return min, o
}

// eliminate removes fringe resources (no dependents) that commute with
// every incomparable resource, returning them in removal order together
// with the set of survivors. g is only read; work holds the check's
// labels, indexed by node handle.
//
// It is a worklist form of section 4.4's round-based elimination and
// produces the same removal order, survivors and semantic queries:
//
//   - A round scans fringe nodes in insertion order; a node that becomes
//     fringe mid-round is examined in this round when it lies after the
//     scan position, else in the next. Rounds repeat until one removes
//     nothing.
//   - A node is tested only against its commute.Index candidates — the
//     live non-ancestors whose summaries conflict syntactically with its
//     own — in insertion order, stopping at the first that does not
//     commute (its blocker). Every other pair commutes syntactically, so
//     skipping it changes no verdict and asks no query.
//   - A blocked node is examined again only when its blocker is removed,
//     resuming after it: removals never add candidates, and every verdict
//     before the blocker is memoized. (Commutation is symmetric, so a
//     blocker cannot itself be removed while the node it blocks lives;
//     the wake-up keeps the scan exact without relying on that.)
//   - Ancestor sets come from r, computed once: removing nodes without
//     dependents never changes reachability among the survivors.
//   - A barrier (built with dependents, so never fringe at the start)
//     goes the moment its last dependent does, and its dependencies wake
//     as if that dependent had been their own: barriers change neither
//     the removal order nor the rounds, and are not among the removed.
//
// With semantic commutativity at Parallelism > 1, each round starts by
// fanning across the worker pool the candidate pairs of every fringe node
// not prefetched before — the pairs the sequential scan may ask.
func eliminate(g *graph.Graph[*node], work []*workNode, r *graph.Reach, cc *commuteChecker) ([]*workNode, graph.Bits, error) {
	n := g.Cap()
	sums := make([]*commute.Summary, n)
	outdeg := make([]int, n)
	alive := graph.NewBits(n)
	cur, next := graph.NewBits(n), graph.NewBits(n)
	for _, v := range g.Nodes() {
		sums[v] = work[v].sum
		outdeg[v] = g.OutDegree(v)
		alive.Set(v)
		if outdeg[v] == 0 {
			cur.Set(v)
		}
	}
	ix := commute.NewIndex(sums)
	resume := make([]graph.Node, n)              // where a blocked node's scan continues
	blocked := make(map[graph.Node][]graph.Node) // blocker -> nodes it blocks
	prefetched := graph.NewBits(n)
	cand := graph.NewBits(n)

	// candidates fills cand with v's live, incomparable conflict candidates.
	candidates := func(v graph.Node) graph.Bits {
		clear(cand)
		anc := r.Ancestors(v)
		ix.Candidates(int(v), func(j int) {
			u := graph.Node(j)
			if u != v && alive.Has(u) && !anc.Has(u) {
				cand.Set(u)
			}
		})
		return cand
	}

	var removed []*workNode
	for {
		if cc.semantic && cc.workers > 1 {
			var pairs []pair
			for _, v := range g.Nodes() {
				if !alive.Has(v) || outdeg[v] != 0 || prefetched.Has(v) {
					continue
				}
				prefetched.Set(v)
				c := candidates(v)
				for u := c.Next(0); u >= 0; u = c.Next(u + 1) {
					pairs = append(pairs, pair{work[v], work[u]})
				}
			}
			cc.prefetch(pairs)
		}

		changed := false
		for v := cur.Next(0); v >= 0; v = cur.Next(v + 1) {
			if err := cc.err(); err != nil {
				return nil, nil, err
			}
			c := candidates(v)
			ok := true
			for u := c.Next(resume[v]); u >= 0; u = c.Next(u + 1) {
				if !cc.commutes(work[v], work[u]) {
					resume[v] = u + 1
					blocked[u] = append(blocked[u], v)
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			removed = append(removed, work[v])
			alive.Clear(v)
			changed = true
			wake := func(w graph.Node) {
				if w > v {
					cur.Set(w)
				} else {
					next.Set(w)
				}
			}
			var release func(x graph.Node)
			release = func(x graph.Node) {
				g.EachPred(x, func(p graph.Node) {
					if outdeg[p]--; outdeg[p] != 0 {
						return
					}
					if work[p].barrier {
						alive.Clear(p)
						release(p)
					} else {
						wake(p)
					}
				})
			}
			release(v)
			for _, w := range blocked[v] {
				wake(w)
			}
			delete(blocked, v)
		}
		if err := cc.err(); err != nil {
			return nil, nil, err
		}
		if !changed {
			return removed, alive, nil
		}
		clear(cur)
		cur, next = next, cur
	}
}

// pruneGraph prunes, for every resource, the definitive writes to paths no
// other resource touches. Returns the number of pruned paths.
func pruneGraph(wg *graph.Graph[*workNode], cc *commuteChecker) (int, error) {
	nodes := wg.Nodes()
	// Count how many resources touch each path, and how many observe each
	// directory's child-set.
	touchers := make(map[fs.Path]int)
	observers := make(map[fs.Path]int)
	for _, n := range nodes {
		sum := wg.Label(n).sum
		for p := range sum.Paths() {
			touchers[p]++
		}
		for d := range sum.ChildObserved() {
			observers[d]++
		}
	}
	pruned := 0
	for _, n := range nodes {
		if err := cc.err(); err != nil {
			return 0, err
		}
		wn := wg.Label(n)
		defs := prune.DefinitiveWrites(wn.expr)
		expr := wn.expr
		changed := false
		for p, v := range defs {
			if !v.Definitive() {
				continue
			}
			if touchers[p] != 1 {
				continue
			}
			// No other resource may observe p's presence through its
			// parent's child-set.
			others := observers[p.Parent()]
			if wn.sum.ObservesChildrenOf(p.Parent()) {
				others--
			}
			if others > 0 {
				continue
			}
			next, ok := prune.Prune(p, expr)
			if !ok {
				continue
			}
			expr = next
			pruned++
			changed = true
		}
		if changed {
			sum := commute.Analyze(expr)
			// Later resources see this one's pruned child-set observations.
			for d := range wn.sum.ChildObserved() {
				observers[d]--
			}
			for d := range sum.ChildObserved() {
				observers[d]++
			}
			wg.SetLabel(n, &workNode{name: wn.name, expr: expr, orig: wn.orig, sum: sum, unchanged: wn.unchanged})
		}
	}
	return pruned, nil
}

// finalDiffTestHook, when non-nil, runs before each disequality of the
// final determinacy query is encoded, and before the probe's disequality
// (with i = 1), with the index of the outcome compared against the first.
// Tests use it to end a check's deadline or context at that point;
// production never sets it.
var finalDiffTestHook func(i int)

// exactFallbackTestHook, when non-nil, runs when a check falls back to the
// exact configuration. Tests use it to see that a witness was repaired
// instead; production never sets it.
var exactFallbackTestHook func()

// errEnumDone unwinds enumerate's recursion once its visitor has what it
// needs.
var errEnumDone = errors.New("enumeration done")

// enumerate explores the POR-reduced linearizations of wg, applying each
// resource's model symbolically (ΦG of figures 7 and 9a). It returns the
// symbolic output state and resource order of every explored
// linearization. r is the reachability of the graph wg was induced from.
// visit runs after each linearization is recorded, with everything
// explored so far; when it answers true the exploration ends there.
func enumerate(wg *graph.Graph[*workNode], r *graph.Reach, en *sym.Encoder, input *sym.State, opts Options, deadline time.Time, cc *commuteChecker, visit func([]*sym.State, [][]graph.Node) (bool, error)) ([]*sym.State, [][]graph.Node, error) {
	nodes := wg.Nodes()
	idx := make(map[graph.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	// Pairwise commutativity matrix. Only the pairs the path index names
	// can fail to commute; they fan across the worker pool directly (no
	// early exits to preserve), in the matrix's row-major order.
	conflict := make([]graph.Bits, len(nodes))
	for i := range nodes {
		conflict[i] = graph.NewBits(len(nodes))
	}
	canCommute := func(i, j int) bool {
		return opts.Commutativity && !conflict[i].Has(graph.Node(j))
	}
	if opts.Commutativity {
		sums := make([]*commute.Summary, len(nodes))
		for i, n := range nodes {
			sums[i] = wg.Label(n).sum
		}
		ix := commute.NewIndex(sums)
		var pairs [][2]int
		row := graph.NewBits(len(nodes))
		for i := range nodes {
			clear(row)
			ix.Candidates(i, func(j int) {
				if j > i {
					row.Set(graph.Node(j))
				}
			})
			for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
				pairs = append(pairs, [2]int{i, int(j)})
			}
		}
		verdicts := make([]bool, len(pairs))
		runParallel(cc.ctx, cc.workers, len(pairs), func(k int) {
			verdicts[k] = cc.commutes(wg.Label(nodes[pairs[k][0]]), wg.Label(nodes[pairs[k][1]]))
		})
		if err := cc.err(); err != nil {
			// A worker panicked or the caller canceled: the matrix may be
			// partial, so abort instead of enumerating over it.
			return nil, nil, err
		}
		for k, p := range pairs {
			if !verdicts[k] {
				conflict[p[0]].Set(graph.Node(p[1]))
				conflict[p[1]].Set(graph.Node(p[0]))
			}
		}
	}
	succs := make([][]graph.Node, len(nodes))
	indeg := make(map[graph.Node]int, len(nodes))
	for i, n := range nodes {
		succs[i] = wg.Succs(n)
		indeg[n] = wg.InDegree(n)
	}
	remaining := make(map[graph.Node]bool, len(nodes))
	for _, n := range nodes {
		remaining[n] = true
	}

	var outs []*sym.State
	var orders [][]graph.Node
	order := make([]graph.Node, 0, len(nodes))

	// The exploration combines two sound reductions:
	//
	//  1. The pivot rule of figure 9a: a ready resource that commutes with
	//     every remaining non-descendant can be scheduled first in every
	//     linearization, so only that branch is explored.
	//  2. Sleep sets: after exploring a branch that schedules t first, t
	//     is put to sleep for the sibling branches and stays asleep as
	//     long as only commuting resources execute — any linearization in
	//     which t could be swapped back to the front was already covered
	//     by the first branch. This collapses the n! interleavings of a
	//     mostly-commuting resource set to one representative per
	//     Mazurkiewicz trace even when no global pivot exists.
	//
	// Both use lemma 4's semantic commutativity, so every pruned
	// linearization is equivalent to an explored one.
	//
	// A ready barrier goes first, before either applies, in every
	// configuration: it is Id, so every order is equivalent to one that
	// runs it as soon as it is ready, and scheduling it so leaves the
	// resources exactly the choices they have without barriers.
	var rec func(st *sym.State, sleep map[graph.Node]bool) error
	// schedule runs n next and explores what follows.
	schedule := func(n graph.Node, st *sym.State, sleep map[graph.Node]bool) error {
		remaining[n] = false
		for _, m := range succs[idx[n]] {
			indeg[m]--
		}
		order = append(order, n)
		if l := wg.Label(n); !l.barrier {
			st = en.Apply(l.expr, st)
		}
		err := rec(st, sleep)
		order = order[:len(order)-1]
		remaining[n] = true
		for _, m := range succs[idx[n]] {
			indeg[m]++
		}
		return err
	}
	rec = func(st *sym.State, sleep map[graph.Node]bool) error {
		// These checks also catch an Apply that the encoder's copy of the
		// same limits cut short, so no such state reaches outs.
		if err := cc.err(); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		if len(order) == len(nodes) {
			if len(outs) >= opts.MaxSequences {
				return fmt.Errorf("%w: more than MaxSequences (%d) linearizations", ErrTimeout, opts.MaxSequences)
			}
			outs = append(outs, st)
			orders = append(orders, append([]graph.Node(nil), order...))
			done, err := visit(outs, orders)
			if done {
				return errEnumDone
			}
			return err
		}
		var ready []graph.Node
		for _, n := range nodes {
			if !remaining[n] || indeg[n] != 0 {
				continue
			}
			if wg.Label(n).barrier {
				return schedule(n, st, sleep)
			}
			if !sleep[n] {
				ready = append(ready, n)
			}
		}
		if len(ready) == 0 {
			// Everything ready is asleep: all linearizations below are
			// permutations of branches explored earlier.
			return nil
		}
		if opts.Commutativity {
			for _, e := range ready {
				pivot := true
				for _, m := range nodes {
					if m == e || !remaining[m] {
						continue
					}
					if r.IsAncestor(e, m) {
						continue // m is a descendant of e
					}
					if !canCommute(idx[e], idx[m]) {
						pivot = false
						break
					}
				}
				if pivot {
					ready = []graph.Node{e}
					break
				}
			}
		}
		accumulated := sleep
		for branch, n := range ready {
			childSleep := make(map[graph.Node]bool)
			for s := range accumulated {
				if canCommute(idx[s], idx[n]) {
					childSleep[s] = true
				}
			}
			if err := schedule(n, st, childSleep); err != nil {
				return err
			}
			if opts.Commutativity && !opts.DisableSleepSets && branch < len(ready)-1 {
				if accumulated == nil || len(accumulated) == len(sleep) {
					// Copy-on-write: extend the sleep set for siblings.
					next := make(map[graph.Node]bool, len(sleep)+len(ready))
					for s := range sleep {
						next[s] = true
					}
					accumulated = next
				}
				accumulated[n] = true
			}
		}
		return nil
	}
	if err := rec(input, nil); err != nil && err != errEnumDone {
		return nil, nil, err
	}
	return outs, orders, nil
}
