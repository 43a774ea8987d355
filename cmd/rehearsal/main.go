// Command rehearsal verifies Puppet manifests: it checks determinism
// (section 4), idempotence (section 5) and optional file invariants, and
// can dump the compiled resource graph.
//
// Usage:
//
//	rehearsal [flags] manifest.pp [manifest2.pp ...]
//
// Typical runs:
//
//	rehearsal site.pp
//	rehearsal -platform centos -timeout 2m site.pp
//	rehearsal -invariant /etc/motd=welcome site.pp
//	rehearsal -dot site.pp > graph.dot
//	rehearsal -parallel 8 site1.pp site2.pp site3.pp
//	rehearsal -semantic-commute -cache-dir ~/.cache/rehearsal site.pp
//	rehearsal -diff -cache-dir ~/.cache/rehearsal old.pp new.pp
//
// With -diff and exactly two manifests, the first is the base version and
// the second the head: the engine diffs their compiled resource models by
// digest and re-verifies only pairs touching a changed resource,
// inheriting every unchanged-pair verdict from the warm caches (point
// -cache-dir at the directory a previous full run populated). -stats
// reports the partition (diff-changed/diff-unchanged) and the pair-level
// savings (pairs-reused/pairs-reverified/inherit-misses).
//
// Every manifest goes through service.BuildReport, the pipeline the
// rehearsald daemon runs, bound to one core.Substrate for the whole run.
// With several manifests the checks run concurrently (bounded by
// -parallel) and share that substrate's semantic-commutativity cache, so
// fleets of manifests with overlapping resources never re-solve the same
// query; each manifest's report is printed as one block, in argument
// order. With -cache-dir, the substrate also persists verdicts on disk, so
// a later rehearsal process pointed at the same directory starts warm.
//
// With -json, each manifest's report is emitted as one machine-readable
// JSON document on stdout — the same schema the rehearsald service returns
// for finished jobs — and human-oriented statistics (-stats) go to stderr.
// Without it, the same report is rendered as text (render.go).
//
// With -pkg-server, package listings come from a live service; the client
// retries transient failures (per-attempt timeout -net-timeout, total
// attempts -net-retries) and, when -snapshot names a catalog snapshot
// (see pkgserver -write-snapshot), degrades to it rather than failing
// when the service is unavailable. SIGINT/SIGTERM cancel in-flight
// checks promptly.
//
// Exit codes distinguish the failure class:
//
//	0  every check passed
//	1  verdict failure: non-deterministic, non-idempotent, violated
//	   invariant, or a manifest error
//	2  usage error: bad flags, unreadable manifest
//	3  timeout or interrupt: the analysis did not finish
//	4  infrastructure failure: listing service unavailable, solver worker
//	   panic — re-running may succeed
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pkgdb"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// cli is one invocation's verification setup, shared by every manifest it
// checks.
type cli struct {
	sub *core.Substrate
	// base holds the engine knobs; each check overlays its request's
	// per-job knobs (platform, node, semantic flags) and binds the result
	// to sub, as a rehearsald worker does.
	base core.Options
	// req names the checks; Manifest and Platform are filled per check.
	req       service.JobRequest
	platforms []string
	dot       bool
	jsonOut   bool
	verbose   bool
	stats     bool
}

func run(args []string) int {
	fl := flag.NewFlagSet("rehearsal", flag.ContinueOnError)
	platform := fl.String("platform", "ubuntu", "target platform (ubuntu or centos); selects facts and the package catalog")
	timeout := fl.Duration("timeout", 10*time.Minute, "per-check timeout (the paper's benchmark limit)")
	pkgServer := fl.String("pkg-server", "", "base URL of a package-listing service (default: built-in catalog)")
	netTimeout := fl.Duration("net-timeout", pkgdb.DefaultAttemptTimeout, "per-attempt timeout for package-listing requests (with -pkg-server)")
	netRetries := fl.Int("net-retries", pkgdb.DefaultAttempts, "total attempts per package-listing request (with -pkg-server)")
	snapshot := fl.String("snapshot", "", "catalog snapshot file used as fallback when the listing service is unavailable (see pkgserver -write-snapshot)")
	nodeName := fl.String("node", "default", "node name for node-block selection")
	allPlatforms := fl.Bool("all-platforms", false, "re-verify the manifest for every supported platform (paper section 8)")
	noCommut := fl.Bool("no-commutativity", false, "disable commutativity-based partial-order reduction (section 4.3)")
	noElim := fl.Bool("no-elimination", false, "disable resource elimination (section 4.4)")
	noPrune := fl.Bool("no-pruning", false, "disable path pruning (section 4.4)")
	semCommute := fl.Bool("semantic-commute", false, "strengthen the commutativity check with solver-based pairwise equivalence (helps overlapping package closures)")
	cacheDir := fl.String("cache-dir", "", "persist semantic-commutativity verdicts to this directory; later runs pointed at the same directory start warm")
	wellFormed := fl.Bool("well-formed-init", false, "restrict initial states to well-formed filesystem trees (realizable machines)")
	skipIdem := fl.Bool("skip-idempotence", false, "only check determinism")
	invariant := fl.String("invariant", "", "check a file invariant, formatted path=content")
	dot := fl.Bool("dot", false, "print the resource graph in Graphviz format and exit")
	jsonOut := fl.Bool("json", false, "emit one JSON report per manifest on stdout (the rehearsald job-report schema)")
	suggest := fl.Bool("suggest", false, "on non-determinism, search for missing dependencies that repair the manifest")
	diffMode := fl.Bool("diff", false, "differential verification: with exactly two manifests, treat the first as the base version and re-verify only resource pairs whose compiled models changed, inheriting the rest from the (ideally warm, see -cache-dir) verdict caches")
	parallel := fl.Int("parallel", 0, "worker count for solver queries and concurrent manifests (0 = number of CPUs)")
	verbose := fl.Bool("v", false, "print analysis statistics (sequences= counts the linearizations encoded: every order POR explores, or 2 when the first two orders already gave a replayed counterexample)")
	stats := fl.Bool("stats", false, "print solver-backend statistics (solver reuses, learnt clauses retained, encode-memo/disk-cache hits; with -diff, reused vs re-verified pair counts; with -cache-dir, disk hits/misses/corrupt entries)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	paths := fl.Args()
	if len(paths) < 1 {
		fmt.Fprintln(os.Stderr, "usage: rehearsal [flags] manifest.pp [manifest2.pp ...]")
		fl.PrintDefaults()
		return 2
	}
	if *invariant != "" && !strings.Contains(*invariant, "=") {
		fmt.Fprintln(os.Stderr, "rehearsal: -invariant must be path=content")
		return 2
	}
	if *diffMode {
		if len(paths) != 2 {
			fmt.Fprintln(os.Stderr, "usage: rehearsal -diff [flags] base.pp head.pp")
			return 2
		}
		if *dot {
			fmt.Fprintln(os.Stderr, "rehearsal: -diff and -dot are mutually exclusive")
			return 2
		}
	}

	// One substrate for the run, as rehearsald builds one per process: the
	// manifests share its verdict cache, disk tier and listing client.
	subCfg := core.SubstrateConfig{CacheDir: *cacheDir}
	if *pkgServer != "" {
		client := pkgdb.NewClientConfig(*pkgServer, pkgdb.ClientConfig{
			AttemptTimeout: *netTimeout,
			Attempts:       *netRetries,
		})
		if *snapshot != "" {
			if err := client.AttachSnapshot(*snapshot); err != nil {
				fmt.Fprintf(os.Stderr, "rehearsal: %v\n", err)
				return 2
			}
		}
		subCfg.Provider = client
	}
	sub, err := core.NewSubstrate(subCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rehearsal: %v\n", err)
		return 2
	}

	// SIGINT/SIGTERM cancel in-flight checks: workers stop promptly and
	// the process exits with the interrupt class instead of hanging until
	// the analysis timeout.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	c := &cli{
		sub:  sub,
		base: core.DefaultOptions(),
		req: service.JobRequest{
			Node:            *nodeName,
			Checks:          []string{service.CheckDeterminism},
			Invariant:       *invariant,
			SemanticCommute: *semCommute,
			WellFormedInit:  *wellFormed,
		},
		platforms: []string{*platform},
		dot:       *dot,
		jsonOut:   *jsonOut,
		verbose:   *verbose,
		stats:     *stats,
	}
	c.base.Timeout = *timeout
	c.base.Context = ctx
	c.base.Commutativity = !*noCommut
	c.base.Elimination = !*noElim
	c.base.Pruning = !*noPrune
	c.base.Parallelism = *parallel
	if !*skipIdem {
		c.req.Checks = append(c.req.Checks, service.CheckIdempotence)
	}
	if *suggest {
		c.req.Checks = append(c.req.Checks, service.CheckRepair)
	}
	if *allPlatforms {
		// The paper notes the analysis is platform-dependent and suggests
		// re-verifying per platform (section 8).
		c.platforms = []string{"ubuntu", "centos"}
	}

	if *diffMode {
		baseSrc, err := os.ReadFile(paths[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "rehearsal: %v\n", err)
			return 2
		}
		c.req.BaseManifest = string(baseSrc)
		paths = paths[1:]
	}
	if len(paths) == 1 {
		return c.checkManifest(os.Stdout, os.Stderr, paths[0])
	}

	// Several manifests: check them concurrently, each writing into its
	// own pair of buffers (stdout-bound and stderr-bound, so -stats and
	// diagnostics never pollute machine-readable output), and print the
	// blocks in argument order.
	workers := *parallel
	if workers <= 0 {
		workers = len(paths)
	}
	codes := make([]int, len(paths))
	outBufs := make([]bytes.Buffer, len(paths))
	errBufs := make([]bytes.Buffer, len(paths))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, path := range paths {
		i, path := i, path
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			codes[i] = c.checkManifest(&outBufs[i], &errBufs[i], path)
		}()
	}
	wg.Wait()
	worst := 0
	for i, path := range paths {
		if !c.jsonOut {
			fmt.Printf("=== %s ===\n", path)
		}
		os.Stdout.Write(outBufs[i].Bytes())
		if errBufs[i].Len() > 0 {
			fmt.Fprintf(os.Stderr, "=== %s ===\n", path)
			os.Stderr.Write(errBufs[i].Bytes())
		}
		worst = max(worst, codes[i])
	}
	return worst
}

// checkManifest reads and verifies one manifest file on each platform of
// the run, writing results to w and diagnostics to ew; it returns the
// worst exit code.
func (c *cli) checkManifest(w, ew io.Writer, path string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(ew, "rehearsal: %v\n", err)
		return 2
	}
	worst := 0
	for _, plat := range c.platforms {
		if len(c.platforms) > 1 && !c.jsonOut {
			fmt.Fprintf(w, "=== platform %s ===\n", plat)
		}
		req := c.req
		req.Manifest, req.Platform = string(src), plat
		worst = max(worst, c.verify(w, ew, path, req))
	}
	return worst
}

// verify runs one request through the report pipeline rehearsald runs and
// prints the report, as JSON or as text; it returns the process exit code.
// -dot only loads the manifest and prints its resource graph.
func (c *cli) verify(w, ew io.Writer, path string, req service.JobRequest) int {
	opts := c.sub.Bind(req.ApplyTo(c.base))
	if c.dot {
		sys, err := core.Load(req.Manifest, opts)
		if err != nil {
			fmt.Fprintf(ew, "rehearsal: %v\n", err)
			return service.ExitCode(&service.Report{Error: service.Classify(err)})
		}
		fmt.Fprint(w, sys.Dot())
		return 0
	}
	rep := service.BuildReport(req, opts)
	rep.Manifest = path
	if c.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(ew, "rehearsal: %v\n", err)
			return 4
		}
		c.printStats(ew, rep)
	} else {
		c.printText(w, ew, req.Normalize(), rep)
	}
	return service.ExitCode(rep)
}
