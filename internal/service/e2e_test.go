package service

// End-to-end contracts of the assembled tools, each against a package
// listing server that can inject faults: the CLI's exit codes, clean and
// under chaos (through BuildReport and ExitCode, the path `rehearsal -json`
// takes), daemon verdicts and retry cost under chaos, warm-cache answers,
// graceful drain, and digest routing across a fleet. The listing server counts the
// requests it sees, so "answered without the package service" is asserted,
// not assumed, and every test is a leak test.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/leakcheck"
	"repro/internal/pkgdb"
)

// pkgServer is the built-in catalog served over HTTP, with a request count.
type pkgServer struct {
	client *pkgdb.Client
	calls  atomic.Int64
}

// startPkgServer serves the catalog behind plan's faults (none when plan is
// nil) and counts every request, faulted ones too: they are the retries a
// call bound budgets. The client tries each request attempts times (0: the
// client default) with millisecond backoff and keeps no connection alive,
// so net/http cannot replay a request on a dead connection and spend a
// fault-plan decision by itself. The leak check spans the server's life
// and allows no goroutine slack: with no connection kept alive, every
// goroutine a request starts must be gone once the servers close, so a
// leak of one per request fails the test.
func startPkgServer(t *testing.T, plan *faults.Plan, attempts int) *pkgServer {
	t.Helper()
	base := leakcheck.Take()
	t.Cleanup(func() { leakcheck.AssertOpts(t, base, leakcheck.Opts{GoroutineSlack: 0}) })
	p := &pkgServer{}
	h := faults.Middleware(plan, pkgdb.Handler(pkgdb.DefaultCatalog()))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.calls.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	p.client = pkgdb.NewClientConfig(srv.URL, pkgdb.ClientConfig{
		HTTPClient:   &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Attempts:     attempts,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
	})
	return p
}

// startDaemon boots one daemon whose substrate lists packages through p.
func startDaemon(t *testing.T, p *pkgServer, workers int) (*Server, *httptest.Server) {
	t.Helper()
	sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: p.client})
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{Workers: workers, Substrate: sub})
}

// submitWait posts req, requires it accepted, and waits for the job to
// end. It returns whether the submission was deduped onto an existing job,
// and the job's terminal view.
func submitWait(t *testing.T, ts *httptest.Server, req JobRequest) (bool, JobView) {
	t.Helper()
	view, status := postJob(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	return view.Deduped, waitTerminal(t, ts, view.ID)
}

// brief renders the verdict-bearing fields of a report for a failure
// message.
func brief(rep *Report) string {
	if rep == nil {
		return "no report"
	}
	s := "verdict=" + rep.Verdict
	if rep.Determinism != nil {
		s += fmt.Sprintf(" determinism.ok=%v", rep.Determinism.Ok)
	}
	if rep.Idempotence != nil {
		s += fmt.Sprintf(" idempotence.ok=%v", rep.Idempotence.Ok)
	}
	if rep.Error != nil {
		s += fmt.Sprintf(" error=%s (%s)", rep.Error.Class, rep.Error.Message)
	}
	return s
}

// wantVerdict fails the test unless the job ended done with the given
// verdict and determinism outcome.
func wantVerdict(t *testing.T, label string, view JobView, verdict string, deterministic bool) {
	t.Helper()
	rep := view.Report
	if view.State != JobDone || rep == nil || rep.Verdict != verdict ||
		rep.Determinism == nil || rep.Determinism.Ok != deterministic {
		t.Fatalf("%s: want done, verdict=%s determinism.ok=%v; got %s, %s", label, verdict, deterministic, view.State, brief(rep))
	}
}

// TestCLIExitCodes: exit codes are a contract. A clean manifest exits 0
// with both checks ok; a missing dependency exits 1 with determinism
// failed; a dependency cycle is an invalid manifest and exits 1 with the
// manifest error class. All three go through BuildReport and ExitCode
// against the listing server.
func TestCLIExitCodes(t *testing.T) {
	p := startPkgServer(t, nil, 0)
	opts := core.DefaultOptions()
	opts.Provider = p.client
	check := func(manifest string) (*Report, int) {
		t.Helper()
		req := JobRequest{Manifest: manifest}
		rep := BuildReport(req, req.ApplyTo(opts))
		return rep, ExitCode(rep)
	}

	rep, code := check(`
package {'ntp': ensure => present }
file {'/etc/ntp.conf': content => 'server pool.ntp.org', require => Package['ntp'] }
`)
	if code != 0 || rep.Verdict != VerdictPass || rep.Determinism == nil || !rep.Determinism.Ok ||
		rep.Idempotence == nil || !rep.Idempotence.Ok {
		t.Errorf("clean: exit %d, %s; want 0, verdict=pass, both checks ok", code, brief(rep))
	}

	rep, code = check(`
package {'ntp': ensure => present }
file {'/etc/ntp.conf': content => 'server pool.ntp.org' }
`)
	if code != 1 || rep.Verdict != VerdictFail || rep.Determinism == nil || rep.Determinism.Ok {
		t.Errorf("missing dependency: exit %d, %s; want 1, verdict=fail, determinism.ok=false", code, brief(rep))
	}

	rep, code = check(`
package {'ntp': ensure => present, require => Package['git'] }
package {'git': ensure => present, require => Package['ntp'] }
`)
	if code != 1 || rep.Verdict != VerdictFail || rep.Error == nil || rep.Error.Class != ClassManifest {
		t.Errorf("cycle: exit %d, %s; want 1, verdict=fail, error class %s", code, brief(rep), ClassManifest)
	}
	if n := p.calls.Load(); n < 1 {
		t.Errorf("%d listing requests, want at least 1", n)
	}
}

// TestCLIChaosPastRetryBudget: when every request to the listing service
// faults, the check ends after spending its attempts with the infra error
// class and exit 4 ("retrying may succeed"), not with a verdict.
func TestCLIChaosPastRetryBudget(t *testing.T) {
	plan := faults.NewPlan(faults.Config{Seed: 42, Burst: 1 << 20, Kinds: []faults.Kind{faults.Status, faults.Reset}})
	p := startPkgServer(t, plan, 2)
	opts := core.DefaultOptions()
	opts.Provider = p.client
	req := JobRequest{Manifest: pkgManifest("ntp")}
	rep := BuildReport(req, req.ApplyTo(opts)) // what `rehearsal -json` runs
	code := ExitCode(rep)
	if code != 4 || rep.Verdict != VerdictError || rep.Error == nil || rep.Error.Class != ClassInfra {
		t.Errorf("exit %d, report %s; want 4, error class %s", code, brief(rep), ClassInfra)
	}
	if n := p.calls.Load(); n < 2 {
		t.Errorf("%d listing requests, want at least the 2 attempts", n)
	}
}

// TestDaemonVerdictsUnderBurstChaos: chaos within the client's retry
// budget (2 faults per path, 4 attempts) leaves the daemon's verdicts
// unchanged and costs a bounded number of extra listing requests; an
// identical resubmission is answered by the result layer with no listing
// request and no solver query.
func TestDaemonVerdictsUnderBurstChaos(t *testing.T) {
	plan := faults.NewPlan(faults.Config{Seed: 42, Burst: 2}) // every fault kind
	p := startPkgServer(t, plan, 4)
	_, ts := startDaemon(t, p, 2)

	_, view := submitWait(t, ts, JobRequest{Manifest: okManifest})
	wantVerdict(t, "clean manifest", view, VerdictPass, true)
	if view.Report.Idempotence == nil || !view.Report.Idempotence.Ok {
		t.Errorf("clean manifest: %s, want idempotence ok", brief(view.Report))
	}
	if n := p.calls.Load(); n < 3 || n > 24 {
		t.Errorf("clean manifest: %d listing requests, want 3..24", n)
	}
	if plan.StatsSnapshot().Injected == 0 {
		t.Error("the plan injected no faults")
	}
	scrape := scrapeMetrics(t, ts)
	for name, want := range map[string]int64{
		"rehearsald_jobs_submitted_total": 1,
		"rehearsald_jobs_done_total":      1,
		"rehearsald_jobs_failed_total":    0,
	} {
		if got := metricValue(t, scrape, name); got != want {
			t.Errorf("after the clean manifest: %s = %d, want %d", name, got, want)
		}
	}

	_, view = submitWait(t, ts, JobRequest{Manifest: buggyManifest})
	wantVerdict(t, "missing dependency", view, VerdictFail, false)
	scrape = scrapeMetrics(t, ts)
	if got := metricValue(t, scrape, "rehearsald_jobs_done_total"); got != 2 {
		t.Errorf("after the missing dependency: jobs_done_total = %d, want 2", got)
	}
	queries := metricValue(t, scrape, "rehearsald_solver_queries_total")

	calls := p.calls.Load()
	deduped, view := submitWait(t, ts, JobRequest{Manifest: okManifest})
	if !deduped {
		t.Error("resubmission not deduped")
	}
	wantVerdict(t, "resubmission", view, VerdictPass, true)
	if n := p.calls.Load() - calls; n != 0 {
		t.Errorf("resubmission made %d listing requests, want 0", n)
	}
	scrape = scrapeMetrics(t, ts)
	if got := metricValue(t, scrape, "rehearsald_result_hits_total"); got != 1 {
		t.Errorf("result_hits_total = %d, want 1", got)
	}
	if got := metricValue(t, scrape, "rehearsald_solver_queries_total"); got != queries {
		t.Errorf("resubmission cost %d solver queries, want 0", got-queries)
	}
}

// TestRewordedManifestAnsweredWarm: a manifest with the same resources but
// different text is a new job (no dedup), yet its one semantic pair is
// answered from the substrate's verdict cache, with no solver query and no
// listing request. One worker keeps the cache accounting exact.
func TestRewordedManifestAnsweredWarm(t *testing.T) {
	core.ResetSolverPools()
	p := startPkgServer(t, nil, 0)
	_, ts := startDaemon(t, p, 1)

	_, view := submitWait(t, ts, JobRequest{Manifest: semManifest, SemanticCommute: true})
	wantVerdict(t, "first sight", view, VerdictPass, true)
	if st := view.Report.Stats; st == nil || st.SemQueries != 1 {
		t.Errorf("first sight: stats %+v, want solver_queries 1", st)
	}
	if p.calls.Load() == 0 {
		t.Error("first sight made no listing request")
	}
	queries := metricValue(t, scrapeMetrics(t, ts), "rehearsald_solver_queries_total")

	calls := p.calls.Load()
	reworded := "# same resources, different source text\n" + semManifest
	deduped, view := submitWait(t, ts, JobRequest{Manifest: reworded, SemanticCommute: true})
	if deduped {
		t.Error("reworded manifest deduped onto the first job")
	}
	wantVerdict(t, "reworded", view, VerdictPass, true)
	if st := view.Report.Stats; st == nil || st.SemCacheHits != 1 || st.SemQueries != 0 {
		t.Errorf("reworded: stats %+v, want sem_cache_hits 1, solver_queries 0", st)
	}
	if n := p.calls.Load() - calls; n != 0 {
		t.Errorf("reworded: %d listing requests, want 0", n)
	}
	if got := metricValue(t, scrapeMetrics(t, ts), "rehearsald_solver_queries_total"); got != queries {
		t.Errorf("reworded: %d new solver queries on /metrics, want 0", got-queries)
	}
}

// TestDrainFinishesThenRejects: a graceful drain after accepted work has
// finished cancels and fails nothing; later submissions get 503 with a
// Retry-After hint, each counted on /metrics, without touching the
// listing service.
func TestDrainFinishesThenRejects(t *testing.T) {
	p := startPkgServer(t, nil, 0)
	svc, ts := startDaemon(t, p, 2)

	_, view := submitWait(t, ts, JobRequest{Manifest: okManifest})
	wantVerdict(t, "accepted work", view, VerdictPass, true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	scrape := scrapeMetrics(t, ts)
	for _, name := range []string{"rehearsald_jobs_canceled_total", "rehearsald_jobs_failed_total"} {
		if got := metricValue(t, scrape, name); got != 0 {
			t.Errorf("after the drain: %s = %d, want 0", name, got)
		}
	}

	calls := p.calls.Load()
	for i, name := range []string{"git", "curl"} {
		status, hdr := rawSubmit(t, ts, JobRequest{Manifest: pkgManifest(name)})
		if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Errorf("submit %s after drain: status %d, Retry-After %q; want 503 with a hint",
				name, status, hdr.Get("Retry-After"))
		}
		if got := metricValue(t, scrapeMetrics(t, ts), "rehearsald_drain_rejects_total"); got != int64(i+1) {
			t.Errorf("after rejecting %s: drain_rejects_total = %d, want %d", name, got, i+1)
		}
	}
	if n := p.calls.Load() - calls; n != 0 {
		t.Errorf("rejected submissions made %d listing requests, want 0", n)
	}
}

// TestClusterDigestRoutingDedups: on a 3-node ring the same manifest lands
// on one owner whichever node it enters, so the second and third
// submissions coalesce onto the first job with no listing request, while a
// distinct manifest verifies normally.
func TestClusterDigestRoutingDedups(t *testing.T) {
	p := startPkgServer(t, nil, 0)
	f := startFleet(t, 3, func(_ int, cfg *Config) {
		sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: p.client, RemoteTier: cfg.Cluster.Tier()})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Substrate = sub
	})
	req := JobRequest{Manifest: okManifest}

	_, view := submitWait(t, f.ts[0], req)
	wantVerdict(t, "via node 0", view, VerdictPass, true)
	if p.calls.Load() == 0 {
		t.Error("first submission made no listing request")
	}
	for _, node := range []int{1, 2} {
		calls := p.calls.Load()
		deduped, view := submitWait(t, f.ts[node], req)
		if !deduped {
			t.Errorf("same manifest via node %d not deduped", node)
		}
		wantVerdict(t, "same manifest", view, VerdictPass, true)
		if n := p.calls.Load() - calls; n != 0 {
			t.Errorf("same manifest via node %d: %d listing requests, want 0", node, n)
		}
	}

	calls := p.calls.Load()
	_, view = submitWait(t, f.ts[2], JobRequest{Manifest: pkgManifest("git")})
	wantVerdict(t, "distinct manifest", view, VerdictPass, true)
	if p.calls.Load() == calls {
		t.Error("distinct manifest made no listing request")
	}
}
