package core

import (
	"sync"

	"repro/internal/fs"
	"repro/internal/sym"
)

// sessionPool hands out incremental solver sessions (sym.Session) over one
// fixed vocabulary. A session held by a worker answers queries with learnt
// clauses, compiled terms and the shared symbolic input state retained from
// every query it answered before; releasing parks it for the next worker.
// The pool never blocks: when all parked sessions are in use, acquire
// constructs a fresh one, so at most Options.Parallelism sessions exist per
// check.
type sessionPool struct {
	vocab *sym.Vocab
	mu    sync.Mutex
	free  []*sym.Session
}

// acquire returns a session and whether it had to be constructed (false
// means an existing solver was reused).
func (p *sessionPool) acquire() (*sym.Session, bool) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, false
	}
	p.mu.Unlock()
	return sym.NewSession(p.vocab), true
}

// release parks s for the next worker, or drops it once it has answered
// sym.SessionQueryCap queries, so a later acquire starts a fresh session.
func (p *sessionPool) release(s *sym.Session) {
	if s.Stats().Queries >= sym.SessionQueryCap {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// applyHits sums the parked sessions' apply-memo hits — symbolic
// applications answered without walking a subtree. Like snapshot, it only
// sees sessions parked at call time, and a retired session's hits leave
// the sum; internal/core reads before/after deltas around a check, so the
// figure is approximate.
func (p *sessionPool) applyHits() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, s := range p.free {
		n += s.Stats().ApplyHits
	}
	return n
}

// snapshot sums the live learnt clauses over the parked sessions.
func (p *sessionPool) snapshot() (learnt int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.free {
		learnt += s.Stats().LearntRetained
	}
	return learnt
}

// The process-wide pool registry, keyed by vocabulary digest: re-checking
// a manifest (or its exact-configuration fallback, which shares the
// unpruned expression set) reuses warm solvers across checks, the same way
// qcache reuses verdicts. Bounded so a long multi-manifest run cannot
// accumulate solvers without limit; eviction is least-recently-used.
var (
	poolsMu   sync.Mutex
	pools     = make(map[fs.Digest]*sessionPool)
	poolOrder []fs.Digest // LRU order, oldest first
)

// maxPools bounds the number of distinct vocabulary pools.
const maxPools = 32

// poolFor returns the pool for the vocabulary, creating (and registering)
// it if needed.
func poolFor(v *sym.Vocab) *sessionPool {
	k := v.Digest()
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p, ok := pools[k]; ok {
		for i, od := range poolOrder {
			if od == k {
				poolOrder = append(append(poolOrder[:i:i], poolOrder[i+1:]...), k)
				break
			}
		}
		return p
	}
	if len(pools) >= maxPools {
		oldest := poolOrder[0]
		poolOrder = poolOrder[1:]
		delete(pools, oldest)
	}
	p := &sessionPool{vocab: v}
	pools[k] = p
	poolOrder = append(poolOrder, k)
	return p
}

// ResetSolverPools drops every pooled solver. Benchmarks call it to measure
// cold-pool behavior; production code never needs to.
func ResetSolverPools() {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	pools = make(map[fs.Digest]*sessionPool)
	poolOrder = nil
}
