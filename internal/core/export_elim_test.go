package core

import (
	"repro/internal/graph"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// ProviderOf returns the package provider s was compiled against, after
// defaults.
func ProviderOf(s *System) pkgdb.Provider { return s.opts.Provider }

// EliminationRun is what one elimination pass did: the removal order, the
// residual graph and the semantic-commutativity work it asked for.
type EliminationRun struct {
	Order        []string    // eliminated resources, in removal order
	Residual     []string    // surviving resources, in insertion order
	Edges        [][2]string // surviving dependency edges
	SemQueries   int
	SemCacheHits int
}

// RunElimination runs only the elimination step of a determinacy check on
// s under opts, with the worklist (oracle false) or with the round-based
// oracle below (oracle true). Each run gets a private verdict cache, so
// the query counts of two runs are comparable.
func RunElimination(s *System, opts Options, oracle bool) (EliminationRun, error) {
	opts.SharedQueryCache = qcache.New()
	cc := newCommuteChecker(opts)
	defer cc.cancel()
	work := s.workLabels(nil)
	if opts.SemanticCommute && !opts.FreshSolvers {
		cc.usePool(s.poolVocab())
	}
	relabel := func(n graph.Node, _ *node) *workNode { return work[n] }

	// The oracle runs on the resource graph without barriers, as section
	// 4.4 states it; the worklist's residual is compared on that graph too.
	var removed []*workNode
	var residual *graph.Graph[*workNode]
	if oracle {
		residual = graph.Induced(s.resourceGraph(), all, relabel)
		removed = eliminateRounds(residual, cc)
	} else {
		reach, err := s.g.Reach()
		if err != nil {
			return EliminationRun{}, err
		}
		var alive graph.Bits
		removed, alive, err = eliminate(s.g, work, reach, cc)
		if err != nil {
			return EliminationRun{}, err
		}
		residual = graph.Induced(s.resourceGraph(), alive.Has, relabel)
	}
	if err := cc.err(); err != nil {
		return EliminationRun{}, err
	}
	run := EliminationRun{SemQueries: int(cc.queries.Load()), SemCacheHits: int(cc.hits.Load())}
	for _, w := range removed {
		run.Order = append(run.Order, w.name)
	}
	for _, n := range residual.Nodes() {
		run.Residual = append(run.Residual, residual.Label(n).name)
		for _, m := range residual.Succs(n) {
			run.Edges = append(run.Edges, [2]string{residual.Label(n).name, residual.Label(m).name})
		}
	}
	return run, nil
}

// eliminateRounds is the round-based elimination the worklist in
// determinism.go replaced, kept verbatim as the differential oracle.
//
// eliminate repeatedly removes fringe resources (no dependents) that
// commute with every incomparable resource, returning them in removal
// order. Each round first batches the candidate pairs it is about to ask
// and fans the semantic-commutativity queries across the worker pool;
// the removal pass itself stays sequential and identical to the
// single-threaded analysis, so the removal order — which replay depends
// on — is the same at any parallelism.
func eliminateRounds(wg *graph.Graph[*workNode], cc *commuteChecker) []*workNode {
	var removed []*workNode
	for {
		// Batch this round's candidate queries: every fringe node against
		// every incomparable node, as of the round-start graph. The
		// sequential pass below may skip some (early break on the first
		// conflict) or add some (nodes that become fringe mid-round);
		// prefetching a near-exact superset is only a cache warm-up and
		// cannot change any verdict.
		if cc.semantic && cc.workers > 1 {
			var pairs []pair
			for _, v := range wg.Nodes() {
				if wg.OutDegree(v) != 0 {
					continue
				}
				anc := wg.Ancestors(v)
				for _, u := range wg.Nodes() {
					if u == v {
						continue
					}
					if _, isAnc := anc[u]; isAnc {
						continue
					}
					pairs = append(pairs, pair{wg.Label(v), wg.Label(u)})
				}
			}
			cc.prefetch(pairs)
		}

		changed := false
		for _, v := range wg.Nodes() {
			if wg.OutDegree(v) != 0 {
				continue
			}
			anc := wg.Ancestors(v)
			ok := true
			for _, u := range wg.Nodes() {
				if u == v {
					continue
				}
				if _, isAnc := anc[u]; isAnc {
					continue
				}
				if !cc.commutes(wg.Label(v), wg.Label(u)) {
					ok = false
					break
				}
			}
			if ok {
				removed = append(removed, wg.Label(v))
				wg.Remove(v)
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}

// SetFinalDiffTestHook installs f as the hook run before each disequality
// of the final determinacy query is encoded; the returned func removes it.
func SetFinalDiffTestHook(f func(i int)) (restore func()) {
	finalDiffTestHook = f
	return func() { finalDiffTestHook = nil }
}

// SetExactFallbackTestHook installs f as the hook run when a check falls
// back to the exact configuration; the returned func removes it.
func SetExactFallbackTestHook(f func()) (restore func()) {
	exactFallbackTestHook = f
	return func() { exactFallbackTestHook = nil }
}

// WitnessManifests are small non-deterministic manifests whose
// counterexamples the external tests check for minimality.
var WitnessManifests = []string{fig3aBroken, introExample, sshKeyBug}
