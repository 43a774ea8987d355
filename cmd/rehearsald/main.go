// Command rehearsald is the long-running verification daemon: it accepts
// manifest-analysis jobs over HTTP/JSON and runs them on a bounded worker
// pool that shares one warm substrate — pooled incremental solvers, the
// in-memory verdict cache and (with -cache-dir) its on-disk tier — so
// repeated and overlapping manifests verify far faster than one-shot CLI
// runs.
//
// Usage:
//
//	rehearsald [flags]
//
// Typical runs:
//
//	rehearsald -addr :8374
//	rehearsald -workers 8 -queue-depth 128 -cache-dir /var/cache/rehearsald
//	rehearsald -pkg-server http://localhost:8373 -snapshot catalog.snap
//	rehearsald -chaos seed=42,rate=0.2,kinds=status+reset
//	rehearsald -advertise http://10.0.0.5:8374 -peers http://10.0.0.6:8374,http://10.0.0.7:8374
//
// API (see internal/service):
//
//	POST   /v1/jobs              submit {"manifest": "...", "checks": [...]}
//	GET    /v1/jobs/{id}         lifecycle + report when finished
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/witness counterexample witness document
//	GET    /metrics              Prometheus text format
//	GET    /healthz, /readyz     probes (readyz follows drain state and the
//	                             package-listing circuit breaker)
//
// With -advertise (and usually -peers) the daemon joins a verdict-sharing
// cluster: submissions are digest-routed to their consistent-hash ring
// owner, verdict lookups consult the peer ring before the solver, and the
// peer/ring endpoints (GET/PUT /v1/cache/{key}, /v1/ring, /v1/ring/peers,
// /v1/cluster/stats) come up — see cmd/rehearsalctl for operating them.
//
// SIGINT/SIGTERM drain gracefully: admission stops, queued and in-flight
// jobs finish in the canceled state, workers join, then the listener
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pkgdb"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8374", "listen address")
	workers := flag.Int("workers", 0, "verification worker count (0 = number of CPUs)")
	queueDepth := flag.Int("queue-depth", 64, "max queued jobs before admission control answers 429")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job wall-clock cap (requests may ask for less, never more)")
	resultTTL := flag.Duration("result-ttl", 15*time.Minute, "how long finished jobs answer identical re-submissions from the result layer")
	cacheDir := flag.String("cache-dir", "", "persist semantic-commutativity verdicts to this directory (restart-warm)")
	semCommute := flag.Bool("semantic-commute", false, "strengthen commutativity with solver-based pairwise equivalence for every job")
	parallel := flag.Int("parallel", 0, "per-job solver parallelism (0 = number of CPUs)")
	pkgServer := flag.String("pkg-server", "", "base URL of a package-listing service (default: built-in catalog)")
	netTimeout := flag.Duration("net-timeout", pkgdb.DefaultAttemptTimeout, "per-attempt timeout for package-listing requests")
	netRetries := flag.Int("net-retries", pkgdb.DefaultAttempts, "total attempts per package-listing request")
	snapshot := flag.String("snapshot", "", "catalog snapshot file used as fallback when the listing service is unavailable")
	chaos := flag.String("chaos", "", "fault-injection spec applied to the HTTP layer (testing only), e.g. seed=42,rate=0.2,kinds=status+reset")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for workers to observe cancellation")
	peers := flag.String("peers", "", "comma-separated peer URLs to form a verdict-sharing cluster with (requires -advertise)")
	advertise := flag.String("advertise", "", "URL peers reach this node at, e.g. http://10.0.0.5:8374 (joins the cluster ring; peer endpoints are unauthenticated, so run clustered daemons on a trusted network only)")
	flag.Parse()

	var node *cluster.Node
	if *advertise != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		node = cluster.NewNode(*advertise, peerList)
	} else if *peers != "" {
		log.Fatalf("rehearsald: -peers requires -advertise (peers must be able to reach this node)")
	}

	// One warm substrate for the whole process: every worker binds to it.
	subCfg := core.SubstrateConfig{CacheDir: *cacheDir}
	if node != nil {
		// Verdict lookups go memory → disk → peer ring before any solver
		// query; a dead peer degrades to a miss.
		subCfg.RemoteTier = node.Tier()
	}
	if *pkgServer != "" {
		client := pkgdb.NewClientConfig(*pkgServer, pkgdb.ClientConfig{
			AttemptTimeout: *netTimeout,
			Attempts:       *netRetries,
		})
		if *snapshot != "" {
			if err := client.AttachSnapshot(*snapshot); err != nil {
				log.Fatalf("rehearsald: -snapshot: %v", err)
			}
		}
		subCfg.Provider = client
	}
	sub, err := core.NewSubstrate(subCfg)
	if err != nil {
		log.Fatalf("rehearsald: %v", err)
	}

	base := core.DefaultOptions()
	base.SemanticCommute = *semCommute
	base.Parallelism = *parallel

	cfg := service.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		JobTimeout:  *jobTimeout,
		ResultTTL:   *resultTTL,
		Substrate:   sub,
		BaseOptions: &base,
		Cluster:     node,
	}
	if *chaos != "" {
		fcfg, err := faults.ParseSpec(*chaos)
		if err != nil {
			log.Fatalf("rehearsald: -chaos: %v", err)
		}
		cfg.Faults = faults.NewPlan(fcfg)
		log.Printf("rehearsald: chaos mode on (%s)", *chaos)
	}

	svc, err := service.New(cfg)
	if err != nil {
		log.Fatalf("rehearsald: %v", err)
	}
	srv := service.NewHTTPServer(*addr, svc.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("rehearsald: serving on %s (workers=%d queue=%d cache-dir=%q)",
		*addr, cfg.Workers, *queueDepth, *cacheDir)
	if node != nil {
		log.Printf("rehearsald: clustered as %s with %d member(s)", node.Self(), len(node.Members()))
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: cancel queued and in-flight jobs first (they
		// finish in the canceled state), then close the listener so probes
		// and lifecycle queries keep answering while workers wind down.
		stop()
		log.Printf("rehearsald: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Shutdown(dctx); err != nil {
			log.Printf("rehearsald: %v", err)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("rehearsald: shutdown: %v", err)
		}
		log.Printf("rehearsald: stopped")
	}
}
