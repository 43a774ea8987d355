package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pkgdb"
	"repro/internal/service"
)

// Service workload shape. The rate is a moderate load for two vCPUs (no
// backlog builds: the median queue wait is under a tenth of a
// millisecond); lower rates give too few samples for a steady tail.
// serviceLimit is the latency limit that defines goodput;
// serviceRequest bounds one HTTP call and the drain.
const (
	serviceRate    = 100 // requests per second
	serviceLimit   = time.Second
	svcPackages    = 64
	svcLibFiles    = 8
	svcOwnFiles    = 2
	serviceRequest = 30 * time.Second
	// svcZipfS and svcWarmFrac are the soak rig's (cmd/rehearsal-load)
	// popularity skew and share of repeat sightings sent reworded.
	svcZipfS    = 1.3
	svcWarmFrac = 0.3
	// svcPool is the number of distinct manifests (see svcSchedule).
	svcPool = 256
	// svcWarmup is the stretch of the schedule sent before timing
	// starts. A fresh daemon's first second meets the first sightings of
	// the most popular manifests all at once (a third of the requests are
	// cold, against one in twenty later), a cold-start burst that users
	// of a long-lived daemon do not pay. Warm-up requests are gated, not
	// timed.
	svcWarmup = 3 * time.Second
)

// svcCatalog is the generated package catalog behind the service
// workload: svc-N packages that all depend on one shared library, so any
// two of them overlap and only a solver query can prove they commute —
// each never-seen pair is one cold semantic-commutativity query. warm-a
// and warm-b serve the set-up job and are never used by the traffic.
func svcCatalog() *pkgdb.Catalog {
	c := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libshared", Version: "1.0"}
	for i := 0; i < svcLibFiles; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libshared/lib%03d", i))
	}
	c.Add("ubuntu", lib)
	names := []string{"warm-a", "warm-b"}
	for i := 0; i < svcPackages; i++ {
		names = append(names, fmt.Sprintf("svc-%d", i))
	}
	for _, name := range names {
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"libshared"}}
		for j := 0; j < svcOwnFiles; j++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/lib%03d", name, j))
		}
		c.Add("ubuntu", p)
	}
	return c
}

// svcManifest is a small fleet manifest installing two catalog packages
// next to a few accounts and a site tree.
func svcManifest(rng *rand.Rand, a, b string, f fault) string {
	return genFleet(rng, fleetSpec{pkgs: []fleetPkg{{name: a}, {name: b}}, users: 2, sites: 1, files: 3}, f)
}

// svcRequest is one scheduled submission and its known answer.
type svcRequest struct {
	kind    string // cold, warm or resubmit
	src     string
	body    []byte
	wantDet bool
}

// svcSchedule precomputes the seeded request mix the way the soak rig
// does, so the pacer does no generation work. Manifest popularity is
// zipfian over a pool of small fleet manifests, each installing its own
// package pair of the catalog. A manifest's first sighting is cold (a
// never-seen pair, so a fresh solver query); a later sighting is warm
// with probability svcWarmFrac (reworded: new digest, same resources)
// and otherwise a byte-identical resubmission.
//
// The pool is larger than the soak rig's 16 manifests, whose first
// sightings are all over within the warm-up: with 256, about one timed
// request in twenty is cold, so cold work lasts the whole run and the
// slowest class (cold and faulty) is over 1% of it, which puts the p99
// inside that class rather than in its tail. Every odd-ranked manifest
// carries the local-dep fault, so the gate sees both verdicts on the
// most popular manifests and the faulty share of traffic is set by the
// popularity curve, not by the seed.
func svcSchedule(rng *rand.Rand, n int) []svcRequest {
	var pairs [][2]int
	for i := 0; i < svcPackages; i++ {
		for j := i + 1; j < svcPackages; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	zipf := rand.NewZipf(rng, svcZipfS, 1, svcPool-1)
	seen := make(map[uint64]svcRequest)
	reqs := make([]svcRequest, 0, n)
	for len(reqs) < n {
		rank := zipf.Uint64()
		cold, ok := seen[rank]
		switch {
		case !ok:
			f := faultNone
			if rank%2 == 1 {
				f = faultLocalDep
			}
			p := pairs[rank]
			src := svcManifest(rng, fmt.Sprintf("svc-%d", p[0]), fmt.Sprintf("svc-%d", p[1]), f)
			cold = svcRequest{kind: "cold", src: src, body: jobBody(src), wantDet: f.deterministic()}
			seen[rank] = cold
			reqs = append(reqs, cold)
		case rng.Float64() < svcWarmFrac:
			src := reword(cold.src, rng)
			reqs = append(reqs, svcRequest{kind: "warm", src: src, body: jobBody(src), wantDet: cold.wantDet})
		default:
			cold.kind = "resubmit"
			reqs = append(reqs, cold)
		}
	}
	return reqs
}

// jobBody is the soak rig's request: determinism with semantic
// commutativity.
func jobBody(src string) []byte {
	body, err := json.Marshal(service.JobRequest{
		Manifest:        src,
		Checks:          []string{service.CheckDeterminism},
		SemanticCommute: true,
	})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return body
}

// daemon is an in-process rehearsald behind a loopback HTTP listener.
type daemon struct {
	sub       *core.Substrate
	svc       *service.Server
	ts        *httptest.Server
	client    *http.Client
	transport *http.Transport
}

// startDaemon boots a daemon the way rehearsald does — default substrate
// over the given package provider, Workers = NumCPU — and proves it
// serves by running one job end to end.
func startDaemon(provider pkgdb.Provider) (*daemon, error) {
	scfg := core.SubstrateConfig{Provider: provider}
	cfg := service.Config{Workers: runtime.NumCPU()}
	// Guard every option set a job runs under: the substrate's, the
	// daemon's, and the engine options the scheduler gives each job.
	base := core.DefaultOptions()
	if cfg.BaseOptions != nil {
		base = *cfg.BaseOptions
	}
	for _, opts := range []any{scfg, cfg, base} {
		if err := nativeOnly(opts); err != nil {
			return nil, err
		}
	}
	sub, err := core.NewSubstrate(scfg)
	if err != nil {
		return nil, err
	}
	cfg.Substrate = sub
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{sub: sub, svc: svc, ts: httptest.NewServer(svc.Handler())}
	// The generator holds at most NumCPU connections.
	d.transport = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	d.client = &http.Client{Transport: d.transport, Timeout: serviceRequest}

	rng := rand.New(rand.NewSource(0))
	s := d.submit(0, svcRequest{kind: "setup", body: jobBody(svcManifest(rng, "warm-a", "warm-b", faultNone)), wantDet: true}, time.Now(), nil, nil)
	if s.failed || s.wrong || !s.decided {
		d.close()
		return nil, fmt.Errorf("set-up job did not pass")
	}
	return d, nil
}

// close drains the daemon and stops its listener.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), serviceRequest)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	d.ts.Close()
	d.transport.CloseIdleConnections()
	return err
}

// svcSample is one request's observation.
type svcSample struct {
	kind                     string
	failed, rejected         bool
	decided, wrong, deduped  bool
	latency, submit, lag     time.Duration
	cpu                      time.Duration // this request's share of process CPU (see cpuShares)
	queueWait, run           time.Duration
	timed                    bool // queueWait/run are this submission's own job
	eliminated, sequences    int
	pathsBefore, pathsAfter  int
	internHits               int64
	semQueries, semCacheHits int
}

// cpuShares attributes the process's CPU time to the requests in flight:
// the CPU spent between two consecutive events (a request sent, a
// request's job done) is shared equally among the requests in flight in
// between. CPU spent while nothing is in flight goes to no request. A
// nil *cpuShares attributes nothing.
type cpuShares struct {
	mu       sync.Mutex
	last     time.Duration // process CPU at the last event
	inflight map[int]bool
	cpu      []time.Duration // per request index
}

func newCPUShares(n int) *cpuShares {
	return &cpuShares{inflight: make(map[int]bool), cpu: make([]time.Duration, n)}
}

// event closes the interval since the last event, then marks request i
// in flight or not.
func (c *cpuShares) event(i int, inflight bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := processCPU()
	if n := len(c.inflight); n > 0 {
		share := (now - c.last) / time.Duration(n)
		for j := range c.inflight {
			c.cpu[j] += share
		}
	}
	c.last = now
	if inflight {
		c.inflight[i] = true
	} else {
		delete(c.inflight, i)
	}
}

// submit posts request i, due at due, waits for its job via the job's
// Done channel, and scores the verdict. The request is in flight for
// shares from just before the post until its job is done.
func (d *daemon) submit(i int, r svcRequest, due time.Time, tr *tracer, shares *cpuShares) svcSample {
	s := svcSample{kind: r.kind}
	shares.event(i, true)
	inflight := true
	landed := func() {
		if inflight {
			inflight = false
			shares.event(i, false)
		}
	}
	defer landed()
	sent := time.Now()
	s.lag = sent.Sub(due)
	resp, err := d.client.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.failed = true
		return s
	}
	var view service.JobView
	decErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	s.submit = time.Since(sent)
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		s.rejected = true
		return s
	default:
		s.failed = true
		return s
	}
	job, ok := d.svc.Job(view.ID)
	if decErr != nil || !ok {
		s.failed = true
		return s
	}
	<-job.Done()
	done := time.Now()
	landed()
	s.latency = done.Sub(due)
	s.deduped = view.Deduped

	final := job.View()
	rep := final.Report
	switch {
	case final.State == service.JobDone && rep != nil && rep.Determinism != nil:
		s.decided = true
		s.wrong = rep.Determinism.Ok != r.wantDet
	case final.Reason != nil && final.Reason.Class == service.ClassTimeout:
		// A classed timeout: no verdict, counted against decided_frac.
	default:
		s.failed = true
		return s
	}
	if !s.deduped {
		created, e1 := time.Parse(time.RFC3339Nano, final.Created)
		started, e2 := time.Parse(time.RFC3339Nano, final.Started)
		finished, e3 := time.Parse(time.RFC3339Nano, final.Finished)
		if e1 == nil && e2 == nil && e3 == nil {
			s.timed = true
			s.queueWait, s.run = started.Sub(created), finished.Sub(started)
			if tr != nil {
				root := tr.record("load.request", 0, 0, due, done)
				tr.record("service.submit", root, root, sent, sent.Add(s.submit))
				tr.record("service.queue", root, root, created, started)
				tr.record("service.run", root, root, started, finished)
			}
		}
		if rep != nil && rep.Stats != nil {
			st := rep.Stats
			s.eliminated, s.sequences = st.Eliminated, st.Sequences
			s.pathsBefore, s.pathsAfter = st.TotalPaths, st.Paths
			s.internHits = st.InternHits
			s.semQueries, s.semCacheHits = st.SemQueries, st.SemCacheHits
		}
	}
	return s
}

// openLoop fires reqs at the fixed rate, regardless of completions, and
// waits for every one to finish. The wall time returned runs from the
// due time of reqs[warm], the first timed request, to the last
// completion.
func (d *daemon) openLoop(reqs []svcRequest, warm int, tr *tracer) ([]svcSample, time.Duration) {
	samples := make([]svcSample, len(reqs))
	shares := newCPUShares(len(reqs))
	interval := time.Second / serviceRate
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			samples[i] = d.submit(i, reqs[i], due, tr, shares)
		}(i, due)
	}
	wg.Wait()
	for i := range samples {
		samples[i].cpu = shares.cpu[i]
	}
	return samples, time.Since(start.Add(time.Duration(warm) * interval))
}

// runService feeds an in-process daemon over HTTP from one open-loop
// generator at a fixed rate. Gate: every job verdict against the
// generator's known answer.
func runService(seed int64, seconds time.Duration, traced bool) (*result, *tracer, error) {
	n := int(serviceRate * seconds.Seconds())
	if traced {
		n /= 2
	}
	warm := int(serviceRate * svcWarmup.Seconds())
	// Set-up boots a daemon and runs one job; the last round's daemon
	// serves the traffic. The schedule is the load generator's work, not
	// the daemon's, so it is precomputed outside the measured set-ups.
	catalog := svcCatalog()
	rng := rand.New(rand.NewSource(seed))
	reqs := svcSchedule(rng, warm+n)
	var setups []float64
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := processCPU()
		var err error
		if d, err = startDaemon(catalog); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - start).Seconds())
	}

	samples, wall := d.openLoop(reqs, warm, nil)
	if err := d.close(); err != nil {
		return nil, nil, err
	}
	res, plainWall := scoreService(samples, warm, wall)
	if !traced {
		res.metrics["setup_s"] = median(setups)
		return res, nil, nil
	}

	// The traced segment sends traffic of the same shape, but new
	// manifests (so it inherits no warm process state), to a fresh daemon
	// whose package provider counts and times listings.
	reqs = svcSchedule(rng, warm+n)
	tr := newTracer()
	var calls atomic.Int64
	d, err := startDaemon(countingProvider{p: catalog, tr: tr, calls: &calls})
	if err != nil {
		return nil, nil, err
	}
	calls.Store(0)
	tracedSamples, tracedWall := d.openLoop(reqs, warm, tr)
	qs := d.sub.QueryCacheStats()
	if err := d.close(); err != nil {
		return nil, nil, err
	}
	tres, _ := scoreService(tracedSamples, warm, tracedWall)
	lc := &layerCounts{}
	lc.pkgdbCalls.Store(calls.Load())
	var submits, queue, run, lag []float64
	deduped, accepted, rejected := 0, 0, 0
	for _, s := range tracedSamples[warm:] {
		lag = append(lag, ms(s.lag))
		if s.rejected {
			rejected++
		}
		if s.failed || s.rejected {
			continue
		}
		accepted++
		submits = append(submits, ms(s.submit))
		if s.deduped {
			deduped++
		}
		if s.timed {
			queue = append(queue, ms(s.queueWait))
			run = append(run, ms(s.run))
			lc.checks.Add(1)
			lc.eliminated.Add(int64(s.eliminated))
			lc.sequences.Add(int64(s.sequences))
			lc.pathsBefore.Add(int64(s.pathsBefore))
			lc.pathsAfter.Add(int64(s.pathsAfter))
			lc.internHits.Add(s.internHits)
			lc.semQueries.Add(int64(s.semQueries))
			lc.semCacheHits.Add(int64(s.semCacheHits))
		}
	}
	// The package provider and the verdict cache cannot tell warm-up from
	// timed requests, so their counts are per request sent.
	m := layerMetrics(tr, lc, len(tracedSamples))
	per := float64(max(len(tracedSamples), 1))
	m["qcache.hits"] = float64(qs.Hits) / per
	m["qcache.misses"] = float64(qs.Misses) / per
	m["qcache.coalesced"] = float64(qs.Coalesced) / per
	if total := qs.Hits + qs.Misses + qs.Coalesced; total > 0 {
		m["qcache.hit_ratio"] = float64(qs.Hits) / float64(total)
	}
	m["service.submit_ms"] = quantile(submits, 0.50)
	m["service.queue_wait_ms_p50"] = quantile(queue, 0.50)
	m["service.queue_wait_ms_p99"] = quantile(queue, 0.99)
	m["service.run_ms_p50"] = quantile(run, 0.50)
	m["service.run_ms_p99"] = quantile(run, 0.99)
	m["service.dedup_frac"] = float64(deduped) / float64(max(accepted, 1))
	m["service.rejected"] = float64(rejected)
	m["load.lag_ms_p99"] = quantile(lag, 0.99)
	m["trace.overhead_frac"] = tres.metrics["verdict_cpu_ms_mean"]/res.metrics["verdict_cpu_ms_mean"] - 1
	for k, v := range plainWall {
		m[k] = v
	}
	return &result{
		correct:   res.correct && tres.correct,
		attempted: res.attempted + tres.attempted,
		failed:    res.failed + tres.failed,
		metrics:   m,
		detail:    tres.detail,
	}, tr, nil
}

// scoreService turns one open-loop segment, whose first warm samples
// are the warm-up, into end-to-end metrics and the segment's wall-clock
// figures. Only the rest are timed and count towards decided_frac; every
// sample is gated. Verdict costs are each request's share of process CPU
// (see cpuShares). On
// the wall clock, latency runs from the request's due time to job Done,
// and goodput counts jobs that finished with the right verdict within
// the latency limit. Failures, failed jobs and 429/503 rejections count
// as failed. The gate fails on any wrong verdict, on any failed request
// (below saturation, a rejection is a fault too), and when nothing was
// decided.
func scoreService(samples []svcSample, warm int, wall time.Duration) (*result, map[string]float64) {
	res := &result{correct: true, attempted: len(samples)}
	var lat, cpus []float64
	good, decided := 0, 0
	timed := samples[warm:]
	for i, s := range samples {
		switch {
		case s.failed || s.rejected:
			res.failed++
			continue
		case s.wrong:
			res.correct = false
			continue
		case !s.decided || i < warm:
			continue
		}
		decided++
		lat = append(lat, ms(s.latency))
		cpus = append(cpus, ms(s.cpu))
		if s.latency <= serviceLimit {
			good++
		}
	}
	if res.failed > 0 || decided == 0 {
		res.correct = false
	}
	res.metrics = map[string]float64{
		"verdict_cpu_ms_p50":  quantile(append([]float64(nil), cpus...), 0.50),
		"verdict_cpu_ms_p99":  quantile(append([]float64(nil), cpus...), 0.99),
		"verdict_cpu_ms_mean": mean(cpus),
		"decided_frac":        float64(decided) / float64(max(len(timed), 1)),
		"peak_rss_mb":         peakRSSMB(),
	}
	wallMetrics := map[string]float64{
		"wall.verdict_ms_p50":   quantile(lat, 0.50),
		"wall.verdict_ms_p99":   quantile(lat, 0.99),
		"wall.throughput_per_s": float64(good) / wall.Seconds(),
	}
	type kindStats struct{ lat, cpu []float64 }
	byKind := map[string]*kindStats{}
	for _, s := range timed {
		if s.decided {
			k := byKind[s.kind]
			if k == nil {
				k = &kindStats{}
				byKind[s.kind] = k
			}
			k.lat = append(k.lat, ms(s.latency))
			k.cpu = append(k.cpu, ms(s.cpu))
		}
	}
	kindMS := map[string]map[string]float64{}
	for kind, k := range byKind {
		kindMS[kind] = map[string]float64{
			"samples":     float64(len(k.lat)),
			"wall_ms_p50": quantile(k.lat, 0.50), "wall_ms_p99": quantile(k.lat, 0.99),
			"cpu_ms_p50": quantile(k.cpu, 0.50), "cpu_ms_p99": quantile(k.cpu, 0.99),
		}
	}
	res.detail = map[string]any{
		"by_kind":          kindMS,
		"verdict_samples":  len(lat),
		"rate_per_s":       serviceRate,
		"warmup_requests":  warm,
		"latency_limit_ms": ms(serviceLimit),
		"wall_s":           wall.Seconds(),
	}
	for k, v := range wallMetrics {
		res.detail[k] = v
	}
	return res, wallMetrics
}
