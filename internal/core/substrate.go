package core

// A Substrate is the warm, process-resident state a long-running
// verification service amortizes across requests: the content-addressed
// semantic-commutativity verdict cache (with its optional on-disk tier),
// the package-listing provider with its in-memory listings, negative cache
// and circuit breaker, and — by virtue of being process-wide already — the
// incremental solver-pool registry (pool.go). A one-shot CLI run pays all of these cold on every
// invocation; a daemon builds one Substrate at boot and binds every job's
// Options to it, so the ten-thousandth request starts as warm as the
// second.
//
// A Substrate is safe for concurrent use: any number of goroutines may
// construct Systems and run checks against options bound to the same
// Substrate. The qcache layer is singleflight-deduplicated, the disk tier
// uses atomic renames, the pkgdb client coalesces concurrent fetches, and
// the solver pools hand each worker an isolated session. The differential
// tests (substrate_test.go) pin the contract that matters: verdicts
// produced through a shared warm Substrate are identical to fresh
// single-shot runs.

import (
	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// SubstrateConfig configures a shared substrate.
type SubstrateConfig struct {
	// CacheDir, when non-empty, attaches the on-disk verdict tier: semantic-
	// commutativity verdicts survive process restarts, so a redeployed
	// daemon or a later CLI run starts warm. It is the only way to attach
	// a disk tier.
	CacheDir string
	// QueryCacheCap bounds the in-memory verdict cache; 0 means
	// qcache.DefaultCap, < 0 unbounded.
	QueryCacheCap int
	// Provider, when non-nil, is shared by every bound job — typically a
	// hardened *pkgdb.Client whose listings cache, snapshot fallback and
	// circuit breaker then amortize across requests. Nil leaves each job on
	// the built-in catalog.
	Provider pkgdb.Provider
	// RemoteTier, when non-nil, attaches a networked verdict tier behind
	// the disk tier — in a rehearsald cluster, the consistent-hash peer
	// ring (internal/cluster). Lookup order is then memory → disk → ring,
	// and computed verdicts replicate to their ring owner. Per the tier
	// contract a dead ring degrades to misses, never failures.
	RemoteTier qcache.Tier
}

// Substrate owns the cross-request warm state. Create one with
// NewSubstrate and bind per-job Options to it with Bind.
type Substrate struct {
	cache    *qcache.Cache
	disk     *qcache.Disk // nil without CacheDir
	remote   qcache.Tier  // nil without RemoteTier
	provider pkgdb.Provider
}

// NewSubstrate builds a substrate, opening the on-disk verdict tier when
// configured.
func NewSubstrate(cfg SubstrateConfig) (*Substrate, error) {
	cap := cfg.QueryCacheCap
	if cap == 0 {
		cap = qcache.DefaultCap
	}
	s := &Substrate{
		cache:    qcache.NewWithCap(cap),
		provider: cfg.Provider,
	}
	if cfg.CacheDir != "" {
		disk, err := qcache.OpenDiskShared(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.cache.AttachDisk(disk)
	}
	if cfg.RemoteTier != nil {
		// Attached after the disk tier: a ring lookup costs a network round
		// trip, so it runs only when both local tiers miss.
		s.remote = cfg.RemoteTier
		s.cache.AttachTier(cfg.RemoteTier)
	}
	return s, nil
}

// Bind returns opts wired to the substrate's warm state: the shared
// verdict cache (with the disk tier, if any, attached) and, unless the
// options name their own, the shared provider. Everything else in opts is preserved, so
// per-job knobs — platform, timeout, context, parallelism — keep working.
func (s *Substrate) Bind(opts Options) Options {
	opts.SharedQueryCache = s.cache
	if opts.Provider == nil {
		opts.Provider = s.provider
	}
	return opts
}

// QueryCacheStats snapshots the shared verdict cache's counters.
func (s *Substrate) QueryCacheStats() qcache.Stats {
	return s.cache.StatsSnapshot()
}

// DiskStats snapshots the on-disk tier's counters; ok is false when the
// substrate has no disk tier.
func (s *Substrate) DiskStats() (stats qcache.DiskStats, ok bool) {
	if s.disk == nil {
		return qcache.DiskStats{}, false
	}
	return s.disk.StatsSnapshot(), true
}

// RemoteStats snapshots the remote verdict tier's counters; ok is false
// when the substrate has no remote tier.
func (s *Substrate) RemoteStats() (stats qcache.TierStats, ok bool) {
	if s.remote == nil {
		return qcache.TierStats{}, false
	}
	return s.remote.Stats(), true
}

// LocalVerdict returns the verdict this process holds for key in its
// memory or local (disk) tiers, never asking peers or computing. The peer
// cache protocol serves from it, which keeps ring lookups single-hop.
func (s *Substrate) LocalVerdict(key qcache.Key) (val, ok bool) {
	return s.cache.LookupLocal(key)
}

// StoreLocal ingests a ring-replicated verdict into the memory table and
// local tiers. Remote tiers are skipped by qcache.Seed, so ingestion can
// never echo back into the ring.
func (s *Substrate) StoreLocal(key qcache.Key, val bool) {
	s.cache.Seed(key, val)
}

// ClientStats snapshots the shared provider's client counters; ok is false
// when the provider is not a *pkgdb.Client (or is nil).
func (s *Substrate) ClientStats() (stats pkgdb.ClientStats, ok bool) {
	c, isClient := s.provider.(*pkgdb.Client)
	if !isClient {
		return pkgdb.ClientStats{}, false
	}
	return c.Stats(), true
}

// ProviderHealthy reports whether the shared provider is currently able to
// serve queries: true when there is no shared client, or when the client's
// circuit breaker is closed. Readiness probes use it to take a daemon out
// of rotation while its listing service is down.
func (s *Substrate) ProviderHealthy() bool {
	c, isClient := s.provider.(*pkgdb.Client)
	if !isClient {
		return true
	}
	return !c.BreakerOpen()
}
