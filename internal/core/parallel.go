package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/commute"
	"repro/internal/fs"
	"repro/internal/qcache"
	"repro/internal/sym"
)

// DefaultCommuteBudget bounds SAT conflicts per semantic-commutativity
// query. Every query runs under this bound — with or without a deadline —
// so one pathological pair can never hang elimination; an inconclusive
// query counts as non-commuting, which is always sound (it only forces
// the exact analysis to do more work).
const DefaultCommuteBudget = 200_000

// runParallel executes task(0..n-1) on up to workers goroutines and waits
// for all of them. workers <= 1 runs inline, keeping single-threaded runs
// free of goroutine overhead. When ctx ends, no further tasks are started
// — in-flight tasks finish (every query is budget-bounded, so "finish" is
// prompt) and the call still joins every worker before returning, so a
// canceled run never leaks a goroutine.
func runParallel(ctx context.Context, workers, n int, task func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done() {
				return
			}
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !done() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// commuteChecker decides whether two resource models commute: the fast
// syntactic check of figure 9b, optionally strengthened by a solver-based
// equivalence check of the two orders (Options.SemanticCommute). It is
// safe for concurrent use: the syntactic summaries are immutable, each
// solver query constructs an isolated encoder+solver, and verdicts are
// memoized in the process-wide content-addressed cache under singleflight
// deduplication. A per-check local memo keeps the per-check hit/query
// statistics honest (prefetched pairs are not double-counted when the
// sequential analysis re-reads them) and avoids shared-cache lock traffic
// on the hot path.
type commuteChecker struct {
	semantic bool
	budget   int64
	workers  int
	cache    *qcache.Cache
	pool     *sessionPool // nil: build an isolated solver per query
	satm     *sym.Metrics // SAT search counters summed over every query

	// Cancellation and fail-fast: ctx derives from Options.Context and is
	// additionally canceled by the first hard error (a worker panic), so
	// in-flight pairwise fan-outs stop scheduling promptly. hardErr keeps
	// the first hard error; soft errors (budget exhaustion) never land
	// here — they soundly degrade to "non-commuting" instead.
	ctx    context.Context
	cancel context.CancelFunc
	failMu sync.Mutex
	hard   error

	local      sync.Map     // qcache.Key -> bool, this check's decisions
	queries    atomic.Int64 // solver queries this check executed
	hits       atomic.Int64 // decisions served by the shared cache
	reuses     atomic.Int64 // queries answered by a reused pooled solver
	diskHits   atomic.Int64 // decisions served by the on-disk verdict tier
	remoteHits atomic.Int64 // decisions served by the cluster verdict ring
	panics     atomic.Int64 // worker panics recovered (each aborts the check)

	// Differential accounting (diffAware is set by the VerifyDiff path).
	// Each distinct pair key is classified exactly once, on its first
	// decision: inherited from a warm tier vs solved this run.
	diffAware       bool
	classified      sync.Map     // qcache.Key -> struct{}, pairs already classified
	reusedPairs     atomic.Int64 // unchanged×unchanged pairs answered warm
	reverifiedPairs atomic.Int64 // pairs that executed a solver query
	inheritMisses   atomic.Int64 // unchanged×unchanged pairs that had to solve
}

// classify records one distinct semantic pair's differential outcome.
// solved reports whether the decision executed a solver query this run
// (as opposed to being answered from the memory or disk verdict tier);
// bothUnchanged whether both members are digest-unchanged against the
// base manifest. A changed pair answered warm (possible when another
// manifest already solved the same content) counts in neither bucket —
// it was neither inherited from the base run nor re-verified.
func (c *commuteChecker) classify(key qcache.Key, bothUnchanged, solved bool) {
	if !c.diffAware {
		return
	}
	if _, dup := c.classified.LoadOrStore(key, struct{}{}); dup {
		return
	}
	switch {
	case solved:
		c.reverifiedPairs.Add(1)
		if bothUnchanged {
			c.inheritMisses.Add(1)
		}
	case bothUnchanged:
		c.reusedPairs.Add(1)
	}
}

// solveTestHook, when non-nil, runs inside every semantic-commutativity
// compute (under the worker's panic recovery). Fault-injection tests use
// it to simulate solver crashes and slow queries; production never sets
// it.
var solveTestHook func(e1, e2 fs.Expr)

// fail records err as the check's hard error (first caller wins) and
// cancels the checker's context so concurrent workers stop picking up new
// queries.
func (c *commuteChecker) fail(err error) {
	c.failMu.Lock()
	if c.hard == nil {
		c.hard = err
	}
	c.failMu.Unlock()
	c.cancel()
}

// err returns the error the check must abort with: the first recorded
// hard error, or ErrCanceled when the caller's context ended. nil means
// the check may keep going.
func (c *commuteChecker) err() error {
	c.failMu.Lock()
	hard := c.hard
	c.failMu.Unlock()
	if hard != nil {
		return hard
	}
	if cerr := c.ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, cerr)
	}
	return nil
}

func newCommuteChecker(opts Options) *commuteChecker {
	cache := opts.SharedQueryCache
	if cache == nil {
		cache = qcache.Shared()
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = 1
	}
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	return &commuteChecker{
		ctx:      ctx,
		cancel:   cancel,
		semantic: opts.SemanticCommute,
		budget:   DefaultCommuteBudget,
		workers:  workers,
		cache:    cache,
		satm:     &sym.Metrics{},
	}
}

// usePool routes this check's solver queries through the incremental
// session pool for the vocabulary. The vocabulary must span every
// expression the check can query (checkDeterminism builds it from the full
// pre-analysis expression set; elimination and pruning only shrink
// expressions, and a query over a superset domain decides the same
// equivalence — see internal/sym's session documentation).
func (c *commuteChecker) usePool(v *sym.Vocab) { c.pool = poolFor(v) }

// solve runs one semantic equivalence query: on a pooled session when a
// pool is attached, otherwise on an isolated encoder and solver.
func (c *commuteChecker) solve(e1, e2 fs.Expr) (bool, error) {
	opts := sym.Options{Budget: c.budget, Metrics: c.satm}
	if c.pool == nil {
		eq, _, err := sym.Commutes(e1, e2, opts)
		return eq, err
	}
	sess, created := c.pool.acquire()
	defer c.pool.release(sess)
	if !created {
		c.reuses.Add(1)
	}
	eq, _, err := sess.Commutes(e1, e2, opts)
	return eq, err
}

// commutes reports whether a and b commute (a;b ≡ b;a). After the check's
// context ends (caller cancellation or a prior hard error) it answers
// false without touching the solver — the value is irrelevant by then,
// because the check aborts with the recorded error instead of a verdict.
func (c *commuteChecker) commutes(a, b *workNode) bool {
	if commute.Commute(a.sum, b.sum) {
		return true
	}
	if !c.semantic {
		return false
	}
	if c.ctx.Err() != nil {
		return false
	}
	key := qcache.PairKey(a.digest(), b.digest(), c.budget)
	if v, ok := c.local.Load(key); ok {
		return v.(bool)
	}
	v, src, err := c.cache.Do(key, func() (val bool, err error) {
		// Panic isolation: a crash inside the encoder or solver is
		// recovered here, on the goroutine that hit it, and converted into
		// a typed error — it never kills the process, never strands the
		// singleflight waiters, and never leaks the worker.
		defer func() {
			if r := recover(); r != nil {
				c.panics.Add(1)
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		c.queries.Add(1)
		if solveTestHook != nil {
			solveTestHook(a.expr, b.expr)
		}
		return c.solve(a.expr, b.expr)
	})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			// A panic is a bug or an injected fault, not an inconclusive
			// query: abort the whole check rather than fold it into a
			// verdict.
			c.fail(pe)
			return false
		}
		// Inconclusive (budget exhausted): non-commuting is always sound.
		// The shared cache deliberately keeps no entry — a later check can
		// retry — but this check memoizes the decision locally so repeated
		// asks of the pair stay consistent and cheap.
		c.classify(key, a.unchanged && b.unchanged, true)
		c.local.Store(key, false)
		return false
	}
	switch src {
	case qcache.SrcDisk:
		c.diskHits.Add(1)
		c.hits.Add(1)
	case qcache.SrcRemote:
		c.remoteHits.Add(1)
		c.hits.Add(1)
	case qcache.SrcMemory, qcache.SrcCoalesced:
		c.hits.Add(1)
	}
	// SrcCoalesced means this process ran the solver for the key (on a
	// concurrent goroutine), so it re-verified the pair rather than
	// inheriting it.
	c.classify(key, a.unchanged && b.unchanged, src == qcache.SrcComputed || src == qcache.SrcCoalesced)
	c.local.Store(key, v)
	return v
}

// pair is one candidate commutativity query.
type pair struct{ a, b *workNode }

// prefetch warms the checker's memo for the given pairs by fanning the
// semantic queries across the worker pool. Pairs the syntactic check
// already proves commuting are skipped without a worker, and symmetric
// duplicates collapse to one query via the content-addressed key.
// Prefetching is a pure cache warm-up: the authoritative sequential
// analysis re-asks each pair and reads the identical memoized verdict, so
// results do not depend on worker count or scheduling.
func (c *commuteChecker) prefetch(pairs []pair) {
	if !c.semantic || len(pairs) == 0 {
		return
	}
	seen := make(map[qcache.Key]struct{}, len(pairs))
	todo := pairs[:0]
	for _, p := range pairs {
		if commute.Commute(p.a.sum, p.b.sum) {
			continue
		}
		key := qcache.PairKey(p.a.digest(), p.b.digest(), c.budget)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		todo = append(todo, p)
	}
	runParallel(c.ctx, c.workers, len(todo), func(i int) {
		c.commutes(todo[i].a, todo[i].b)
	})
}
