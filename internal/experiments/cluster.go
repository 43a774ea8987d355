package experiments

// The sharded-cluster experiment: what does a verdict-sharing rehearsald
// ring buy over one node? An in-process fleet of 1, 2 and 4 daemons —
// each with one worker, its own substrate, and the peer ring as its far
// verdict tier — receives the same zipfian job mix over HTTP:
//
//	cold   fresh fleet, empty caches — popular manifests repeat, so even
//	       this round exercises the ring (a repeat may land on a node
//	       that never solved its pairs)
//	warm   the same semantic mix under fresh digests — every pairwise
//	       verdict is already owned somewhere on the ring, so no node
//	       runs a single solver query
//
// Jobs run natively, so N colocated nodes share the host's cores: warm
// throughput at N nodes measures routing and ring overhead on one
// machine, not the capacity of N machines. Verdicts are fingerprinted
// (reports minus stats and timings) and must be byte-identical at every
// node count — the run fails otherwise, so a committed BENCH_cluster.json
// is itself evidence that sharding never changed an answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
)

// ClusterBenchConfig parameterizes the cluster experiment; zero values
// mean the defaults the committed BENCH_cluster.json is produced with.
type ClusterBenchConfig struct {
	// NodeCounts are the fleet sizes measured, in order; the first is the
	// verdict baseline the others must match byte-for-byte.
	NodeCounts []int
	// Jobs is the number of submissions per round.
	Jobs int
	// Pool is the number of distinct manifests the zipfian mix draws from.
	Pool int
	// Seed drives the zipfian draws; the whole experiment is deterministic
	// given a seed (advertise URLs are fixed, so ring placement is too).
	Seed int64
}

func (c ClusterBenchConfig) withDefaults() ClusterBenchConfig {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4}
	}
	if c.Jobs <= 0 {
		c.Jobs = 64
	}
	if c.Pool <= 0 {
		c.Pool = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClusterRow is one (fleet size, round) configuration.
type ClusterRow struct {
	Nodes      int     `json:"nodes"`
	Round      string  `json:"round"` // cold | warm
	Jobs       int     `json:"jobs"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	// Queries counts solver queries across the fleet this round (warm must
	// be 0); RemoteHits the verdicts answered by the peer ring.
	Queries    int `json:"solver_queries"`
	RemoteHits int `json:"remote_cache_hits"`
}

// ClusterScale summarizes one fleet size after both rounds.
type ClusterScale struct {
	Nodes          int     `json:"nodes"`
	WarmJobsPerSec float64 `json:"warm_jobs_per_sec"`
	// SpeedupOverOne is warm throughput relative to the single-node fleet.
	SpeedupOverOne float64 `json:"speedup_over_one_node"`
	RingHits       int64   `json:"ring_hits"`
	RingPuts       int64   `json:"ring_puts"`
	RoutedLocal    int64   `json:"jobs_routed_local"`
	RoutedProxied  int64   `json:"jobs_routed_proxied"`
	ProxyFallbacks int64   `json:"proxy_fallbacks"`
}

// ClusterReport is the BENCH_cluster.json trajectory point.
type ClusterReport struct {
	Benchmark string         `json:"benchmark"`
	Workload  string         `json:"workload"`
	HostCPUs  int            `json:"host_cpus"`
	Seed      int64          `json:"seed"`
	Rows      []ClusterRow   `json:"rows"`
	Scaling   []ClusterScale `json:"scaling"`
	// VerdictsIdentical is always true in a written report: the run fails
	// if any fleet size changes any verdict fingerprint.
	VerdictsIdentical bool `json:"verdicts_identical"`
}

// Write writes the report as indented JSON to path.
func (r *ClusterReport) Write(path string) error { return writeJSON(path, r) }

// hostRewriteTransport maps the fleet's stable advertise hosts to the
// ephemeral in-process listeners: ring placement depends on member URL
// strings, so fixed fake hosts make digest routing deterministic across
// runs while the real ports are not.
type hostRewriteTransport struct{ hosts map[string]string }

func (t hostRewriteTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if real, ok := t.hosts[r.URL.Host]; ok {
		r2 := r.Clone(r.Context())
		r2.URL.Host = real
		r2.URL.Scheme = "http"
		r = r2
	}
	return http.DefaultTransport.RoundTrip(r)
}

// clusterFleet is n in-process rehearsald nodes sharing one verdict ring.
type clusterFleet struct {
	members []string
	nodes   []*cluster.Node
	svcs    []*service.Server
	ts      []*httptest.Server
	client  *http.Client
}

func startClusterFleet(n int, timeout time.Duration, cfg ClusterBenchConfig) (*clusterFleet, error) {
	_, provider := ParallelWorkload(cfg.Pool)
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://node%d.cluster", i)
	}
	hosts := make(map[string]string, n)
	client := &http.Client{Transport: hostRewriteTransport{hosts: hosts}, Timeout: 30 * time.Second}
	f := &clusterFleet{members: members, client: client}
	core.ResetSolverPools()
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, m := range members {
			if j != i {
				peers = append(peers, m)
			}
		}
		node := cluster.NewNode(members[i], peers)
		node.SetHTTPClient(client)
		sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: provider, RemoteTier: node.Tier()})
		if err != nil {
			f.close()
			return nil, err
		}
		base := options(timeout)
		base.Parallelism = 1
		svc, err := service.New(service.Config{
			Workers:     1, // fleet size is the variable
			QueueDepth:  4 * cfg.Jobs,
			JobTimeout:  timeout,
			Substrate:   sub,
			BaseOptions: &base,
			Cluster:     node,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(svc.Handler())
		hosts[fmt.Sprintf("node%d.cluster", i)] = ts.Listener.Addr().String()
		f.nodes = append(f.nodes, node)
		f.svcs = append(f.svcs, svc)
		f.ts = append(f.ts, ts)
	}
	return f, nil
}

func shutdownContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func (f *clusterFleet) close() {
	for _, svc := range f.svcs {
		ctx, cancel := shutdownContext()
		_ = svc.Shutdown(ctx)
		cancel()
	}
	for _, ts := range f.ts {
		ts.Close()
	}
}

// zipfDraws fixes the semantic mix for every round and fleet size: a
// skewed popularity distribution over the manifest pool, as a real site's
// role manifests would show.
func zipfDraws(cfg ClusterBenchConfig) []int {
	r := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(r, 1.3, 1, uint64(cfg.Pool-1))
	draws := make([]int, cfg.Jobs)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	return draws
}

// serviceWindow is the number of packages per manifest in the fleet.
const serviceWindow = 4

// clusterManifest renders pool entry idx — a sliding package window —
// salted with the round and submission index so every submission has a
// distinct digest: nothing is answered by the dedup/result layer, and
// warm-round routing re-shards the whole mix.
func clusterManifest(pool, idx int, round string, job int) string {
	m := fmt.Sprintf("# %s cluster job %d (pool %d)\n", round, job, idx)
	for j := 0; j < serviceWindow; j++ {
		m += fmt.Sprintf("package {'svc-%d': ensure => present }\n", 1+(idx+j)%pool)
	}
	return m
}

// clusterFingerprint renders the verdict-relevant part of a report:
// everything except stats and timings. Two runs agree iff these bytes do.
func clusterFingerprint(rep *service.Report) (string, error) {
	cp := *rep
	cp.Stats = nil
	if cp.Determinism != nil {
		d := *cp.Determinism
		d.DurationMS = 0
		cp.Determinism = &d
	}
	if cp.Idempotence != nil {
		d := *cp.Idempotence
		d.DurationMS = 0
		cp.Idempotence = &d
	}
	if cp.Invariant != nil {
		inv := *cp.Invariant
		inv.DurationMS = 0
		cp.Invariant = &inv
	}
	b, err := json.Marshal(cp)
	return string(b), err
}

type clusterJobRef struct {
	id    string
	owner string // member URL to poll (the ring owner when proxied)
	idx   int    // pool index, for fingerprint bookkeeping
}

// submit posts one job to entry; routing may proxy it to its ring owner,
// in which case the X-Rehearsald-Owner header names where it lives.
func (f *clusterFleet) submit(entry string, req service.JobRequest) (clusterJobRef, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return clusterJobRef{}, err
	}
	resp, err := f.client.Post(entry+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return clusterJobRef{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return clusterJobRef{}, fmt.Errorf("submit to %s: %s: %s", entry, resp.Status, bytes.TrimSpace(msg))
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return clusterJobRef{}, err
	}
	owner := resp.Header.Get("X-Rehearsald-Owner")
	if owner == "" {
		owner = entry
	}
	return clusterJobRef{id: view.ID, owner: owner}, nil
}

// await polls a job until it reaches a terminal state.
func (f *clusterFleet) await(ref clusterJobRef, timeout time.Duration) (service.JobView, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := f.client.Get(ref.owner + "/v1/jobs/" + ref.id)
		if err != nil {
			return service.JobView{}, err
		}
		var view service.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return service.JobView{}, err
		}
		if view.State.Terminal() {
			return view, nil
		}
		if time.Now().After(deadline) {
			return view, fmt.Errorf("job %s on %s not terminal after %v", ref.id, ref.owner, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// runRound pushes one round through the fleet — submissions round-robin
// over the members, as behind a load balancer — and returns the row plus
// the verdict fingerprint of each pool entry seen.
func (f *clusterFleet) runRound(round string, draws []int, cfg ClusterBenchConfig, timeout time.Duration) (ClusterRow, map[int]string, error) {
	start := time.Now()
	refs := make([]clusterJobRef, 0, len(draws))
	for i, idx := range draws {
		req := service.JobRequest{
			Manifest:        clusterManifest(cfg.Pool, idx, round, i),
			SemanticCommute: true,
			Checks:          []string{service.CheckDeterminism},
		}
		ref, err := f.submit(f.members[i%len(f.members)], req)
		if err != nil {
			return ClusterRow{}, nil, fmt.Errorf("cluster round %s: %w", round, err)
		}
		ref.idx = idx
		refs = append(refs, ref)
	}
	queries, remoteHits := 0, 0
	fingerprints := make(map[int]string)
	lats := make([]time.Duration, 0, len(refs))
	for _, ref := range refs {
		view, err := f.await(ref, timeout)
		if err != nil {
			return ClusterRow{}, nil, fmt.Errorf("cluster round %s: %w", round, err)
		}
		lats = append(lats, time.Since(start))
		if view.State != service.JobDone || view.Report == nil || view.Report.Error != nil {
			return ClusterRow{}, nil, fmt.Errorf("cluster round %s: job %s finished %s: %+v",
				round, ref.id, view.State, view.Report)
		}
		if view.Report.Stats != nil {
			queries += view.Report.Stats.SemQueries
			remoteHits += view.Report.Stats.RemoteCacheHits
		}
		fp, err := clusterFingerprint(view.Report)
		if err != nil {
			return ClusterRow{}, nil, err
		}
		if prev, ok := fingerprints[ref.idx]; ok && prev != fp {
			return ClusterRow{}, nil, fmt.Errorf("cluster round %s: pool entry %d produced two verdicts:\n%s\n%s",
				round, ref.idx, prev, fp)
		}
		fingerprints[ref.idx] = fp
	}
	elapsed := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return ClusterRow{
		Nodes:      len(f.members),
		Round:      round,
		Jobs:       len(draws),
		Seconds:    elapsed.Seconds(),
		JobsPerSec: float64(len(draws)) / elapsed.Seconds(),
		P50MS:      quantileMS(lats, 0.50),
		P99MS:      quantileMS(lats, 0.99),
		Queries:    queries,
		RemoteHits: remoteHits,
	}, fingerprints, nil
}

func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// clusterStats aggregates per-node routing and ring-tier counters.
func (f *clusterFleet) scale(warm ClusterRow) ClusterScale {
	sc := ClusterScale{Nodes: len(f.members), WarmJobsPerSec: warm.JobsPerSec}
	for i, node := range f.nodes {
		ts := node.TierStats()
		sc.RingHits += ts.Hits
		sc.RingPuts += ts.Puts
		var st service.ClusterStats
		resp, err := f.client.Get(f.members[i] + "/v1/cluster/stats")
		if err != nil {
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		sc.RoutedLocal += st.RoutedLocal
		sc.RoutedProxied += st.RoutedProxied
		sc.ProxyFallbacks += st.ProxyFallbacks
	}
	return sc
}

// BuildClusterReport runs the cluster experiment end to end, enforcing
// its own acceptance checks: zero warm solver queries, ring hits at every
// multi-node size and byte-identical verdicts across fleet sizes.
func BuildClusterReport(timeout time.Duration, cfg ClusterBenchConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	draws := zipfDraws(cfg)
	rep := &ClusterReport{
		Benchmark: "BenchmarkClusterShardedThroughput",
		Workload: fmt.Sprintf("%d jobs/round, zipfian(s=1.3) over %d role manifests (%d-package windows), distinct digests per submission, 1 worker/node",
			cfg.Jobs, cfg.Pool, serviceWindow),
		HostCPUs:          runtime.NumCPU(),
		Seed:              cfg.Seed,
		VerdictsIdentical: true,
	}
	var baseline map[int]string
	for _, n := range cfg.NodeCounts {
		f, err := startClusterFleet(n, timeout, cfg)
		if err != nil {
			return nil, err
		}
		cold, coldFPs, err := f.runRound("cold", draws, cfg, timeout)
		if err == nil {
			var warm ClusterRow
			var warmFPs map[int]string
			warm, warmFPs, err = f.runRound("warm", draws, cfg, timeout)
			if err == nil {
				err = checkClusterRound(n, cold, warm, coldFPs, warmFPs, baseline)
			}
			if err == nil {
				sc := f.scale(warm)
				if sc.ProxyFallbacks > 0 {
					err = fmt.Errorf("%d nodes: %d submissions fell back to local execution (no peer was dead)", n, sc.ProxyFallbacks)
				} else {
					if n > 1 && sc.RingHits == 0 {
						err = fmt.Errorf("%d nodes: warm round never hit the peer ring", n)
					}
					rep.Rows = append(rep.Rows, cold, warm)
					rep.Scaling = append(rep.Scaling, sc)
					if baseline == nil {
						baseline = coldFPs
					}
				}
			}
		}
		f.close()
		if err != nil {
			return nil, err
		}
	}
	for i := range rep.Scaling {
		rep.Scaling[i].SpeedupOverOne = rep.Scaling[i].WarmJobsPerSec / rep.Scaling[0].WarmJobsPerSec
	}
	return rep, nil
}

// checkClusterRound enforces the per-fleet-size invariants.
func checkClusterRound(n int, cold, warm ClusterRow, coldFPs, warmFPs, baseline map[int]string) error {
	if warm.Queries != 0 {
		return fmt.Errorf("%d nodes: warm round ran %d solver queries (every verdict should be on the ring)", n, warm.Queries)
	}
	if cold.Queries == 0 {
		return fmt.Errorf("%d nodes: cold round ran no solver queries — the workload is degenerate", n)
	}
	for idx, fp := range warmFPs {
		if coldFPs[idx] != fp {
			return fmt.Errorf("%d nodes: pool entry %d verdict changed between cold and warm rounds", n, idx)
		}
	}
	if baseline != nil {
		if len(coldFPs) != len(baseline) {
			return fmt.Errorf("%d nodes: saw %d pool entries, baseline saw %d", n, len(coldFPs), len(baseline))
		}
		for idx, fp := range coldFPs {
			if baseline[idx] != fp {
				return fmt.Errorf("%d nodes: pool entry %d verdict differs from the single-node baseline:\n%s\n%s",
					n, idx, baseline[idx], fp)
			}
		}
	}
	return nil
}
