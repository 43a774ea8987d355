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
// With several manifests the checks run concurrently (bounded by
// -parallel) and share the process-wide semantic-commutativity cache, so
// fleets of manifests with overlapping resources never re-solve the same
// query; each manifest's report is printed as one block, in argument
// order. With -cache-dir, verdicts additionally persist on disk, so a
// later rehearsal process pointed at the same directory starts warm.
//
// With -json, each manifest's report is emitted as one machine-readable
// JSON document on stdout — the same schema the rehearsald service returns
// for finished jobs — and human-oriented statistics (-stats) go to stderr.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options bundles the per-manifest verification configuration.
type options struct {
	core       core.Options
	pkgServer  string
	netTimeout time.Duration
	netRetries int
	snapshot   string
	allPlats   bool
	dot        bool
	jsonOut    bool
	verbose    bool
	stats      bool
	skipIdem   bool
	suggest    bool
	invariant  string
	// baseSrc is the base manifest source in -diff mode; empty means a
	// full verification.
	baseSrc string
}

// newProvider builds the hardened listing-service client for opts,
// attaching the offline snapshot fallback when one was given.
func newProvider(opts options) (pkgdb.Provider, error) {
	client := pkgdb.NewClientConfig(opts.pkgServer, pkgdb.ClientConfig{
		AttemptTimeout: opts.netTimeout,
		Attempts:       opts.netRetries,
	})
	if opts.snapshot != "" {
		if err := client.AttachSnapshot(opts.snapshot); err != nil {
			return nil, err
		}
	}
	return client, nil
}

// classify maps a check error to its exit-code class (see the package
// comment): timeouts and interrupts are 3, infrastructure failures 4,
// everything else a verdict-class 1.
func classify(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrTimeout), errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled):
		return 3
	case core.IsInfraError(err):
		return 4
	default:
		return 1
	}
}

// reportCheckErr prints one check stage's failure and returns its exit
// class. Timeouts and interrupts keep the stage-labelled verdict line the
// reports have always used.
func reportCheckErr(w, ew io.Writer, stage string, err error) int {
	switch code := classify(err); code {
	case 3:
		if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) {
			fmt.Fprintf(w, "%s: INTERRUPTED\n", stage)
		} else {
			fmt.Fprintf(w, "%s: TIMEOUT\n", stage)
		}
		return 3
	default:
		fmt.Fprintf(ew, "rehearsal: %v\n", err)
		return code
	}
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
	if fl.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: rehearsal [flags] manifest.pp [manifest2.pp ...]")
		fl.PrintDefaults()
		return 2
	}

	// SIGINT/SIGTERM cancel in-flight checks: workers stop promptly and
	// the process exits with the interrupt class instead of hanging until
	// the analysis timeout.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	copts := core.DefaultOptions()
	copts.Platform = *platform
	copts.NodeName = *nodeName
	copts.Timeout = *timeout
	copts.Context = ctx
	copts.Commutativity = !*noCommut
	copts.Elimination = !*noElim
	copts.Pruning = !*noPrune
	copts.SemanticCommute = *semCommute
	copts.CacheDir = *cacheDir
	copts.WellFormedInit = *wellFormed
	copts.Parallelism = *parallel

	opts := options{
		core:       copts,
		pkgServer:  *pkgServer,
		netTimeout: *netTimeout,
		netRetries: *netRetries,
		snapshot:   *snapshot,
		allPlats:   *allPlatforms,
		dot:        *dot,
		jsonOut:    *jsonOut,
		verbose:    *verbose,
		stats:      *stats,
		skipIdem:   *skipIdem,
		suggest:    *suggest,
		invariant:  *invariant,
	}
	if *pkgServer != "" {
		p, err := newProvider(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rehearsal: %v\n", err)
			return 2
		}
		opts.core.Provider = p
	}

	paths := fl.Args()
	if *diffMode {
		if len(paths) != 2 {
			fmt.Fprintln(os.Stderr, "usage: rehearsal -diff [flags] base.pp head.pp")
			return 2
		}
		if *dot {
			fmt.Fprintln(os.Stderr, "rehearsal: -diff and -dot are mutually exclusive")
			return 2
		}
		baseSrc, err := os.ReadFile(paths[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "rehearsal: %v\n", err)
			return 2
		}
		opts.baseSrc = string(baseSrc)
		return checkManifest(os.Stdout, os.Stderr, paths[1], opts)
	}
	if len(paths) == 1 {
		return checkManifest(os.Stdout, os.Stderr, paths[0], opts)
	}

	// Several manifests: check them concurrently, each writing into its
	// own pair of buffers (stdout-bound and stderr-bound, so -stats and
	// diagnostics never pollute machine-readable output), and print the
	// blocks in argument order.
	workers := copts.Parallelism
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
			codes[i] = checkManifest(&outBufs[i], &errBufs[i], path, opts)
		}()
	}
	wg.Wait()
	worst := 0
	for i, path := range paths {
		if !opts.jsonOut {
			fmt.Printf("=== %s ===\n", path)
		}
		os.Stdout.Write(outBufs[i].Bytes())
		if errBufs[i].Len() > 0 {
			fmt.Fprintf(os.Stderr, "=== %s ===\n", path)
			os.Stderr.Write(errBufs[i].Bytes())
		}
		if codes[i] > worst {
			worst = codes[i]
		}
	}
	return worst
}

// checkManifest reads and verifies one manifest file, writing results to w
// and errors to ew; it returns the process exit code for this manifest.
func checkManifest(w, ew io.Writer, path string, opts options) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(ew, "rehearsal: %v\n", err)
		return 2
	}
	if opts.allPlats {
		// The paper notes the analysis is platform-dependent and suggests
		// re-verifying per platform (section 8).
		worst := 0
		for _, plat := range []string{"ubuntu", "centos"} {
			perPlat := opts
			perPlat.core.Platform = plat
			perPlat.core.Provider = nil // reset any client bound to one catalog
			if opts.pkgServer != "" {
				p, err := newProvider(opts)
				if err != nil {
					fmt.Fprintf(ew, "rehearsal: %v\n", err)
					return 2
				}
				perPlat.core.Provider = p
			}
			fmt.Fprintf(w, "=== platform %s ===\n", plat)
			code := verifyOne(w, ew, path, string(src), perPlat)
			if code > worst {
				worst = code
			}
		}
		return worst
	}
	return verifyOne(w, ew, path, string(src), opts)
}

// verifyJSON runs the shared service report pipeline over one manifest and
// prints the report as a single JSON document: the CLI's -json mode and a
// rehearsald job produce byte-identical report bodies for the same input.
func verifyJSON(w, ew io.Writer, path, src string, opts options) int {
	if opts.invariant != "" && !strings.Contains(opts.invariant, "=") {
		fmt.Fprintln(ew, "rehearsal: -invariant must be path=content")
		return 2
	}
	req := service.JobRequest{
		Manifest:        src,
		BaseManifest:    opts.baseSrc,
		Platform:        opts.core.Platform,
		Node:            opts.core.NodeName,
		Checks:          []string{service.CheckDeterminism},
		Invariant:       opts.invariant,
		SemanticCommute: opts.core.SemanticCommute,
		WellFormedInit:  opts.core.WellFormedInit,
	}
	if !opts.skipIdem {
		req.Checks = append(req.Checks, service.CheckIdempotence)
	}
	if opts.suggest {
		req.Checks = append(req.Checks, service.CheckRepair)
	}
	rep := service.BuildReport(req, opts.core)
	rep.Manifest = path
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(ew, "rehearsal: %v\n", err)
		return 4
	}
	return service.ExitCode(rep)
}

// verifyOne loads and verifies the manifest under one option set,
// printing results; it returns the process exit code.
func verifyOne(w, ew io.Writer, path, src string, opts options) int {
	if opts.jsonOut {
		return verifyJSON(w, ew, path, src, opts)
	}
	sys, err := core.Load(src, opts.core)
	if err != nil {
		fmt.Fprintf(ew, "rehearsal: %v\n", err)
		return classify(err)
	}
	if opts.dot {
		fmt.Fprint(w, sys.Dot())
		return 0
	}
	fmt.Fprintf(w, "loaded %d resources from %s (platform %s)\n", sys.Size(), path, opts.core.Platform)

	var res *core.DeterminismResult
	if opts.baseSrc != "" {
		baseSys, berr := core.Load(opts.baseSrc, opts.core)
		if berr != nil {
			fmt.Fprintf(ew, "rehearsal: base manifest: %v\n", berr)
			return classify(berr)
		}
		res, err = sys.CheckDeterminismDiff(baseSys)
	} else {
		res, err = sys.CheckDeterminism()
	}
	if err != nil {
		return reportCheckErr(w, ew, "determinism", err)
	}
	if opts.verbose {
		fmt.Fprintf(w, "  resources=%d eliminated=%d pruned-paths=%d paths=%d/%d sequences=%d workers=%d time=%v\n",
			res.Stats.Resources, res.Stats.Eliminated, res.Stats.PrunedPaths,
			res.Stats.Paths, res.Stats.TotalPaths, res.Stats.Sequences,
			res.Stats.Workers, res.Stats.Duration.Round(time.Millisecond))
		if res.Stats.SemQueries+res.Stats.SemCacheHits > 0 {
			fmt.Fprintf(w, "  solver-queries=%d cache-hits=%d hit-rate=%.0f%%\n",
				res.Stats.SemQueries, res.Stats.SemCacheHits, 100*res.Stats.SemCacheHitRate())
		}
	}
	if opts.stats {
		// Statistics are diagnostics, not results: stderr, so stdout stays
		// clean for verdicts (and pipelines scraping them).
		fmt.Fprintf(ew, "  solver-queries=%d solver-reuses=%d learnt-retained=%d\n",
			res.Stats.SemQueries, res.Stats.SolverReuses, res.Stats.LearntRetained)
		fmt.Fprintf(ew, "  encode-memo-hits=%d disk-cache-hits=%d\n",
			res.Stats.EncodeMemoHits, res.Stats.DiskCacheHits)
		fmt.Fprintf(ew, "  decisions=%d propagations=%d conflicts=%d restarts=%d\n",
			res.Stats.SolverDecisions, res.Stats.SolverPropagations,
			res.Stats.SolverConflicts, res.Stats.SolverRestarts)
		if opts.baseSrc != "" {
			fmt.Fprintf(ew, "  diff-changed=%d diff-unchanged=%d pairs-reused=%d pairs-reverified=%d inherit-misses=%d\n",
				res.Stats.DiffChanged, res.Stats.DiffUnchanged,
				res.Stats.PairsReused, res.Stats.PairsReverified, res.Stats.InheritMisses)
		}
		if opts.core.CacheDir != "" {
			if disk, err := qcache.OpenDiskShared(opts.core.CacheDir); err == nil {
				ds := disk.StatsSnapshot()
				fmt.Fprintf(ew, "  disk-hits=%d disk-misses=%d disk-corrupt=%d\n",
					ds.Hits, ds.Misses, ds.CorruptEntries)
			}
		}
	}
	if !res.Deterministic {
		fmt.Fprintln(w, "determinism: FAIL — the manifest is non-deterministic")
		printCounterexample(w, res.Counterexample)
		if opts.suggest {
			repair, err := sys.SuggestRepair()
			switch {
			case err != nil:
				fmt.Fprintf(w, "  no repair found: %v\n", err)
			case repair != nil:
				fmt.Fprintln(w, "  suggested dependencies:")
				for _, e := range repair.Edges {
					fmt.Fprintf(w, "    %s\n", e)
				}
			}
		}
		return 1
	}
	fmt.Fprintln(w, "determinism: OK")

	exitCode := 0
	if !opts.skipIdem {
		idem, err := sys.CheckIdempotence()
		if err != nil {
			return reportCheckErr(w, ew, "idempotence", err)
		}
		if idem.Idempotent {
			fmt.Fprintln(w, "idempotence: OK")
		} else {
			fmt.Fprintln(w, "idempotence: FAIL — applying the manifest twice differs from once")
			fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(idem.Counterexample.String(), "\n", "\n  "))
			exitCode = 1
		}
	}

	if opts.invariant != "" {
		path, content, ok := strings.Cut(opts.invariant, "=")
		if !ok {
			fmt.Fprintln(ew, "rehearsal: -invariant must be path=content")
			return 2
		}
		inv, err := sys.CheckFileInvariant(fs.ParsePath(path), content)
		if err != nil {
			return reportCheckErr(w, ew, "invariant", err)
		}
		if inv.Holds {
			fmt.Fprintf(w, "invariant %s: OK\n", opts.invariant)
		} else {
			fmt.Fprintf(w, "invariant %s: FAIL\n", opts.invariant)
			fmt.Fprintf(w, "  violated from initial state %s\n", fs.StateString(inv.Input))
			exitCode = 1
		}
	}
	return exitCode
}

func printCounterexample(w io.Writer, cex *core.Counterexample) {
	if cex == nil {
		return
	}
	fmt.Fprintf(w, "  initial state: %s\n", fs.StateString(cex.Input))
	fmt.Fprintf(w, "  order A: %s\n", strings.Join(cex.Order1, ", "))
	fmt.Fprintf(w, "    outcome: %s\n", outcome(cex.Ok1, cex.Out1))
	fmt.Fprintf(w, "  order B: %s\n", strings.Join(cex.Order2, ", "))
	fmt.Fprintf(w, "    outcome: %s\n", outcome(cex.Ok2, cex.Out2))
	if cex.Ok1 && cex.Ok2 {
		fmt.Fprintf(w, "  differing paths: %s\n", strings.Join(diffPaths(cex.Out1, cex.Out2), ", "))
	}
}

func outcome(ok bool, st fs.State) string {
	if !ok {
		return "error"
	}
	return fs.StateString(st)
}

func diffPaths(a, b fs.State) []string {
	var out []string
	seen := map[fs.Path]bool{}
	for p, c := range a {
		seen[p] = true
		if oc, ok := b[p]; !ok || oc != c {
			out = append(out, string(p))
		}
	}
	for p := range b {
		if !seen[p] {
			out = append(out, string(p))
		}
	}
	sort.Strings(out)
	return out
}
