package service

// Observability surface: counters and histograms kept with atomics (the
// hot path never takes a lock for metrics) and rendered in Prometheus text
// exposition format by GET /metrics. Cache effectiveness is harvested from
// two places — per-job core.Stats deltas (solver queries, semantic-cache
// and disk hits) accumulated as jobs finish, and the substrate's own cache
// snapshots at scrape time — so both "work the engine did" and "state the
// daemon holds" are visible.

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// numBuckets must equal len(latencyBuckets); checked at init.
const numBuckets = 13

func init() {
	if len(latencyBuckets) != numBuckets {
		panic("service: numBuckets out of sync with latencyBuckets")
	}
}

// histogram is a fixed-bucket latency histogram safe for concurrent use.
type histogram struct {
	counts [numBuckets + 1]atomic.Int64 // per bucket, last = +Inf
	sum    atomic.Int64                 // nanoseconds
	total  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, secs)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// write renders the histogram in Prometheus exposition format.
func (h *histogram) write(w io.Writer, name string, labels string) {
	series := func(suffix string) string {
		if labels == "" {
			return name + suffix
		}
		return fmt.Sprintf("%s%s{%s}", name, suffix, trimComma(labels))
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, ub, cum)
	}
	cum += h.counts[numBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s %g\n", series("_sum"), time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "%s %d\n", series("_count"), h.total.Load())
}

// quantile approximates the q-quantile from the bucket counts (upper bound
// of the bucket the quantile falls in; +Inf reported as the largest
// finite bound). Benchmark reporting uses it; /metrics exposes raw
// buckets.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		if cum > rank {
			return ub
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}

// metrics is the daemon's counter set.
type metrics struct {
	submitted        atomic.Int64 // POST admissions (one per job created)
	admissionRejects atomic.Int64 // 429s: queue at capacity
	drainRejects     atomic.Int64 // 503s: submitted while draining
	dedupCoalesced   atomic.Int64 // submissions attached to an in-flight job
	resultHits       atomic.Int64 // submissions answered by the finished-result layer
	cancels          atomic.Int64 // DELETE cancellations accepted

	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	running      atomic.Int64 // gauge

	// Engine counters accumulated from each finished job's core.Stats.
	solverQueries   atomic.Int64
	semCacheHits    atomic.Int64
	diskCacheHits   atomic.Int64
	remoteCacheHits atomic.Int64
	solverReuses    atomic.Int64

	// SAT search counters summed over every query the engine issued.
	solverDecisions    atomic.Int64
	solverPropagations atomic.Int64
	solverConflicts    atomic.Int64
	solverRestarts     atomic.Int64

	// Cluster routing counters (all zero outside a cluster).
	routedLocal    atomic.Int64 // submissions this node owned and ran
	routedProxied  atomic.Int64 // submissions forwarded to their ring owner
	proxyFallbacks atomic.Int64 // forwards that failed and ran locally instead
	fanoutLookups  atomic.Int64 // job GETs answered by asking peers

	detLatency  histogram
	idemLatency histogram
	jobLatency  histogram
}

// absorb folds one finished report's engine stats into the counters.
func (m *metrics) absorb(rep *Report) {
	if rep == nil {
		return
	}
	if rep.Stats != nil {
		m.solverQueries.Add(int64(rep.Stats.SemQueries))
		m.semCacheHits.Add(int64(rep.Stats.SemCacheHits))
		m.diskCacheHits.Add(int64(rep.Stats.DiskCacheHits))
		m.remoteCacheHits.Add(int64(rep.Stats.RemoteCacheHits))
		m.solverReuses.Add(int64(rep.Stats.SolverReuses))
		m.solverDecisions.Add(rep.Stats.SolverDecisions)
		m.solverPropagations.Add(rep.Stats.SolverPropagations)
		m.solverConflicts.Add(rep.Stats.SolverConflicts)
		m.solverRestarts.Add(rep.Stats.SolverRestarts)
	}
	if rep.Determinism != nil {
		m.detLatency.observe(time.Duration(rep.Determinism.DurationMS * float64(time.Millisecond)))
	}
	if rep.Idempotence != nil {
		m.idemLatency.observe(time.Duration(rep.Idempotence.DurationMS * float64(time.Millisecond)))
	}
}

// write renders every counter, plus scrape-time snapshots of the shared
// substrate and queue, in Prometheus text format.
func (m *metrics) write(w io.Writer, queueDepth, queueCap, workers int, ready bool, counts map[JobState]int, sub *core.Substrate, node *cluster.Node) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	p("rehearsald_up 1")
	p("rehearsald_ready %d", b2i(ready))
	p("rehearsald_workers %d", workers)
	p("rehearsald_queue_depth %d", queueDepth)
	p("rehearsald_queue_capacity %d", queueCap)
	p("rehearsald_jobs_running %d", m.running.Load())
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		p("rehearsald_jobs{state=%q} %d", string(st), counts[st])
	}
	p("rehearsald_jobs_submitted_total %d", m.submitted.Load())
	p("rehearsald_jobs_done_total %d", m.jobsDone.Load())
	p("rehearsald_jobs_failed_total %d", m.jobsFailed.Load())
	p("rehearsald_jobs_canceled_total %d", m.jobsCanceled.Load())
	p("rehearsald_admission_rejects_total %d", m.admissionRejects.Load())
	p("rehearsald_drain_rejects_total %d", m.drainRejects.Load())
	p("rehearsald_dedup_coalesced_total %d", m.dedupCoalesced.Load())
	p("rehearsald_result_hits_total %d", m.resultHits.Load())
	p("rehearsald_cancels_total %d", m.cancels.Load())

	p("rehearsald_solver_queries_total %d", m.solverQueries.Load())
	p("rehearsald_sem_cache_hits_total %d", m.semCacheHits.Load())
	p("rehearsald_disk_cache_hits_total %d", m.diskCacheHits.Load())
	p("rehearsald_remote_cache_hits_total %d", m.remoteCacheHits.Load())
	p("rehearsald_solver_reuses_total %d", m.solverReuses.Load())
	p("rehearsald_solver_decisions_total %d", m.solverDecisions.Load())
	p("rehearsald_solver_propagations_total %d", m.solverPropagations.Load())
	p("rehearsald_solver_conflicts_total %d", m.solverConflicts.Load())
	p("rehearsald_solver_restarts_total %d", m.solverRestarts.Load())
	if q, h := m.solverQueries.Load(), m.semCacheHits.Load(); q+h > 0 {
		p("rehearsald_sem_cache_hit_ratio %.4f", float64(h)/float64(q+h))
	} else {
		p("rehearsald_sem_cache_hit_ratio 0")
	}

	if sub != nil {
		qs := sub.QueryCacheStats()
		p("rehearsald_qcache_hits_total %d", qs.Hits)
		p("rehearsald_qcache_misses_total %d", qs.Misses)
		p("rehearsald_qcache_coalesced_total %d", qs.Coalesced)
		p("rehearsald_qcache_evictions_total %d", qs.Evictions)
		p("rehearsald_qcache_size %d", qs.Size)
		if qs.Hits+qs.Misses > 0 {
			p("rehearsald_qcache_hit_ratio %.4f", float64(qs.Hits)/float64(qs.Hits+qs.Misses))
		} else {
			p("rehearsald_qcache_hit_ratio 0")
		}
		if ds, ok := sub.DiskStats(); ok {
			p("rehearsald_qcache_disk_hits_total %d", ds.Hits)
			p("rehearsald_qcache_disk_misses_total %d", ds.Misses)
			p("rehearsald_qcache_disk_writes_total %d", ds.Writes)
			p("rehearsald_qcache_disk_evictions_total %d", ds.Evictions)
			p("rehearsald_qcache_disk_invalidated_total %d", ds.Invalidated)
			p("rehearsald_qcache_disk_files %d", ds.Files)
			p("rehearsald_qcache_disk_bytes %d", ds.Bytes)
			// Corrupt entries are quarantined, not deleted, so the two
			// series track together; both names exposed for dashboards.
			p("rehearsald_qcache_disk_corrupt_total %d", ds.CorruptEntries)
			p("rehearsald_qcache_disk_quarantined_total %d", ds.CorruptEntries)
		}
		if rs, ok := sub.RemoteStats(); ok {
			p("rehearsald_qcache_remote_hits_total %d", rs.Hits)
			p("rehearsald_qcache_remote_misses_total %d", rs.Misses)
			p("rehearsald_qcache_remote_puts_total %d", rs.Puts)
			p("rehearsald_qcache_remote_errors_total %d", rs.Errors)
		}
		if cs, ok := sub.ClientStats(); ok {
			p("rehearsald_pkgdb_attempts_total %d", cs.Attempts)
			p("rehearsald_pkgdb_retries_total %d", cs.Retries)
			p("rehearsald_pkgdb_snapshot_serves_total %d", cs.SnapshotServes)
			p("rehearsald_pkgdb_breaker_opens_total %d", cs.BreakerOpens)
			p("rehearsald_pkgdb_breaker_fast_fails_total %d", cs.BreakerFastFails)
		}
		p("rehearsald_pkgdb_healthy %d", b2i(sub.ProviderHealthy()))
	}

	if node != nil {
		p("rehearsald_cluster_members %d", len(node.Members()))
		p("rehearsald_cluster_dead_peers %d", len(node.DeadPeers()))
		p("rehearsald_cluster_dead_skips_total %d", node.DeadSkips())
		p("rehearsald_jobs_routed_local_total %d", m.routedLocal.Load())
		p("rehearsald_jobs_routed_proxied_total %d", m.routedProxied.Load())
		p("rehearsald_jobs_proxy_fallbacks_total %d", m.proxyFallbacks.Load())
		p("rehearsald_jobs_fanout_lookups_total %d", m.fanoutLookups.Load())
	}

	m.detLatency.write(w, "rehearsald_check_latency_seconds", `check="determinism",`)
	m.idemLatency.write(w, "rehearsald_check_latency_seconds", `check="idempotence",`)
	m.jobLatency.write(w, "rehearsald_job_latency_seconds", "")
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
