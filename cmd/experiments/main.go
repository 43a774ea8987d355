// Command experiments regenerates every table and figure of the paper's
// evaluation (section 6) against the benchmark suite:
//
//	experiments -fig 11a   paths per state, with and without pruning
//	experiments -fig 11b   determinacy time, pruning on vs off
//	experiments -fig 11c   determinacy time, commutativity on vs off
//	experiments -fig 12    idempotence-check time on verified manifests
//	experiments -fig 13    scalability with n mutually-conflicting packages
//	experiments -bugs      bug-finding summary ("Bugs found" paragraph)
//	experiments -parallel-bench [-parallel-out BENCH_parallel.json]
//	                       parallel-engine speedup at 1/2/4/8 workers
//	experiments -incremental-bench [-incremental-out BENCH_incremental.json]
//	                       incremental-backend speedup: fresh vs pooled solvers
//	experiments -diff-bench [-diff-out BENCH_diff.json]
//	                       differential verification: full re-check vs digest diff
//	experiments -cluster-bench [-cluster-out BENCH_cluster.json]
//	                       sharded rehearsald ring: warm jobs/sec at 1/2/4 nodes
//	experiments            all of the above
//
// Daemon latency and throughput are not measured here: the benchmark's
// `service` workload (nativebench) is the one measurement of rehearsald.
//
// The -timeout flag stands in for the paper's 10-minute limit (default
// 10s: the deliberately-crippled configurations blow up factorially, so a
// small limit shows the same shape quickly). The data behind each table is
// computed by internal/experiments; EXPERIMENTS.md records paper-vs-
// measured shapes. -cpuprofile and -memprofile write pprof profiles of
// whatever subset of the experiments ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 11a, 11b, 11c, 12, 13 (default: all)")
	bugs := flag.Bool("bugs", false, "print the bug-finding summary only")
	parallelBench := flag.Bool("parallel-bench", false, "run the parallel-engine speedup experiment only")
	parallelOut := flag.String("parallel-out", "", "write the parallel speedup results as a JSON trajectory point (e.g. BENCH_parallel.json)")
	incrementalBench := flag.Bool("incremental-bench", false, "run the incremental-backend speedup experiment only")
	incrementalOut := flag.String("incremental-out", "", "write the incremental speedup results as a JSON trajectory point (e.g. BENCH_incremental.json)")
	diffBench := flag.Bool("diff-bench", false, "run the differential-verification speedup experiment only")
	diffOut := flag.String("diff-out", "", "write the differential speedup results as a JSON trajectory point (e.g. BENCH_diff.json)")
	clusterBench := flag.Bool("cluster-bench", false, "run the sharded-cluster throughput experiment only")
	clusterOut := flag.String("cluster-out", "", "write the cluster throughput results as a JSON trajectory point (e.g. BENCH_cluster.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	timeout := flag.Duration("timeout", 10*time.Second, "per-check timeout (paper: 10 minutes)")
	maxN := flag.Int("max-n", 6, "largest n for figure 13")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *bugs:
		printBugs(*timeout)
	case *parallelBench:
		printParallel(*timeout, *parallelOut)
	case *incrementalBench:
		printIncremental(*timeout, *incrementalOut)
	case *diffBench:
		printDiff(*timeout, *diffOut)
	case *clusterBench:
		printCluster(*timeout, *clusterOut)
	case *fig == "":
		printFig11a(*timeout)
		printFig11b(*timeout)
		printFig11c(*timeout)
		printFig12(*timeout)
		printFig13(*timeout, *maxN)
		printBugs(*timeout)
		printParallel(*timeout, *parallelOut)
		printIncremental(*timeout, *incrementalOut)
		printDiff(*timeout, *diffOut)
		printCluster(*timeout, *clusterOut)
	case *fig == "11a":
		printFig11a(*timeout)
	case *fig == "11b":
		printFig11b(*timeout)
	case *fig == "11c":
		printFig11c(*timeout)
	case *fig == "12":
		printFig12(*timeout)
	case *fig == "13":
		printFig13(*timeout, *maxN)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}

func fmtTime(d time.Duration, timedOut bool) string {
	if timedOut {
		return "TIMEOUT"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func printFig11a(timeout time.Duration) {
	rows, err := experiments.Fig11a(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 11a: paths per state (pruned vs unpruned) ==")
	fmt.Printf("%-18s %10s %10s\n", "benchmark", "unpruned", "pruned")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%-18s %10s %10s\n", r.Name, "-", "TIMEOUT")
			continue
		}
		fmt.Printf("%-18s %10d %10d\n", r.Name, r.Unpruned, r.Pruned)
	}
	fmt.Println()
}

func printTimeRows(title, offLabel, onLabel string, rows []experiments.TimeRow) {
	fmt.Println(title)
	fmt.Printf("%-18s %10s %10s\n", "benchmark", offLabel, onLabel)
	for _, r := range rows {
		fmt.Printf("%-18s %10s %10s\n", r.Name,
			fmtTime(r.Off, r.OffTimeout), fmtTime(r.On, r.OnTimeout))
	}
	fmt.Println()
}

func printFig11b(timeout time.Duration) {
	rows, err := experiments.Fig11b(timeout)
	if err != nil {
		fatal(err)
	}
	printTimeRows("== Figure 11b: determinacy time, pruning off vs on (commutativity on) ==",
		"no-prune", "prune", rows)
}

func printFig11c(timeout time.Duration) {
	rows, err := experiments.Fig11c(timeout)
	if err != nil {
		fatal(err)
	}
	printTimeRows("== Figure 11c: determinacy time, commutativity off vs on (pruning off) ==",
		"no-commut", "commut", rows)
}

func printFig12(timeout time.Duration) {
	rows, err := experiments.Fig12(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 12: idempotence-check time (verified manifests) ==")
	fmt.Printf("%-18s %10s %12s\n", "benchmark", "time", "idempotent")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%-18s %10s %12s\n", r.Name, "TIMEOUT", "-")
			continue
		}
		fmt.Printf("%-18s %10s %12v\n", r.Name, fmtTime(r.Time, false), r.Idempotent)
	}
	fmt.Println()
}

func printFig13(timeout time.Duration, maxN int) {
	rows, err := experiments.Fig13(timeout, maxN)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 13: time vs number of conflicting resources ==")
	fmt.Printf("%4s %12s %12s\n", "n", "time", "sequences")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%4d %12s %12s\n", r.N, "TIMEOUT", "-")
			continue
		}
		verdict := "det"
		if !r.Deterministic {
			verdict = "nondet"
		}
		fmt.Printf("%4d %12s %12d   (%s)\n", r.N, fmtTime(r.Time, false), r.Sequences, verdict)
	}
	fmt.Println()
}

// runBench is the shared harness behind every -*-bench flag: floor the
// figure timeout (a bench runs whole workloads, not one figure row),
// build the report, print its table, and write the JSON trajectory point when
// an -*-out path was given. Each bench contributes only its builder and
// its table.
func runBench[T interface{ Write(string) error }](timeout, floor time.Duration, out string,
	build func(time.Duration) (T, error), print func(T)) {
	if timeout < floor {
		timeout = floor
	}
	rep, err := build(timeout)
	if err != nil {
		fatal(err)
	}
	print(rep)
	if out != "" {
		if err := rep.Write(out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

func printParallel(timeout time.Duration, out string) {
	runBench(timeout, time.Minute, out, func(t time.Duration) (*experiments.ParallelReport, error) {
		return experiments.BuildParallelReport(t, []int{1, 2, 4, 8})
	}, printParallelTable)
}

func printParallelTable(rep *experiments.ParallelReport) {
	fmt.Println("== Parallel determinacy engine: speedup vs workers ==")
	fmt.Printf("workload: %s (host CPUs: %d)\n", rep.Workload, rep.HostCPUs)
	fmt.Printf("%8s %14s %10s %10s\n", "workers", "time", "queries", "hits")
	for _, r := range rep.Native {
		fmt.Printf("%8d %14s %10d %10d\n", r.Workers, fmtTime(r.Time, r.TimedOut), r.Queries, r.CacheHits)
	}
	fmt.Printf("speedup at 4 workers: %.2fx\n\n", rep.NativeSpeedup4)
}

func printIncremental(timeout time.Duration, out string) {
	runBench(timeout, time.Minute, out, experiments.BuildIncrementalReport, printIncrementalTable)
}

func printIncrementalTable(rep *experiments.IncrementalReport) {
	fmt.Println("== Incremental SMT backend: fresh vs pooled solvers ==")
	fmt.Printf("workload: %s (host CPUs: %d)\n", rep.Workload, rep.HostCPUs)
	fmt.Printf("%-12s %14s %10s %8s %8s\n",
		"mode", "time", "queries", "reuses", "learnt")
	for _, r := range rep.Native {
		fmt.Printf("%-12s %14s %10d %8d %8d\n", r.Mode, fmtTime(r.Time, r.TimedOut),
			r.Queries, r.SolverReuses, r.LearntRetained)
	}
	fmt.Printf("pooled speedup over fresh: warm %.2fx, cold %.2fx\n\n",
		rep.NativeWarmSpeedup, rep.NativeColdSpeedup)
}

func printDiff(timeout time.Duration, out string) {
	// The synthetic full runs solve 66 queries at one worker; give them
	// headroom regardless of the figure timeout.
	runBench(timeout, 5*time.Minute, out, experiments.BuildDiffReport, printDiffTable)
}

func printDiffTable(rep *experiments.DiffReport) {
	fmt.Println("== Differential verification: full re-check vs digest-level diff ==")
	fmt.Printf("workload: %s (host CPUs: %d)\n", rep.Workload, rep.HostCPUs)
	fmt.Printf("%6s %6s %8s %10s %10s %8s %8s %8s %8s\n",
		"edit%", "edited", "workers", "full", "diff", "speedup", "reused", "resolved", "misses")
	for _, r := range rep.Synthetic {
		fmt.Printf("%6d %6d %8d %9.3fs %9.3fs %7.1fx %8d %8d %8d\n",
			r.EditPercent, r.EditedResources, r.Workers,
			r.FullSeconds, r.DiffSeconds, r.Speedup,
			r.PairsReused, r.PairsReverified, r.InheritMisses)
	}
	h := rep.Hosting
	fmt.Printf("hosting.pp one-resource edit (%d worker): full %.3fs vs diff %.3fs = %.1fx, floor %.0fx (%d pairs inherited, %d solver queries)\n\n",
		h.Workers, h.FullSeconds, h.DiffSeconds, h.Speedup, experiments.MinHostingDiffSpeedup, h.PairsReused, h.DiffQueries)
}

func printCluster(timeout time.Duration, out string) {
	runBench(timeout, time.Minute, out, func(t time.Duration) (*experiments.ClusterReport, error) {
		return experiments.BuildClusterReport(t, experiments.ClusterBenchConfig{})
	}, printClusterTable)
}

func printClusterTable(rep *experiments.ClusterReport) {
	fmt.Println("== Sharded cluster: warm jobs/sec vs node count ==")
	fmt.Printf("workload: %s (host CPUs: %d, seed %d)\n", rep.Workload, rep.HostCPUs, rep.Seed)
	fmt.Printf("%6s %-6s %6s %10s %10s %10s %10s %9s %12s\n",
		"nodes", "round", "jobs", "time", "jobs/s", "p50", "p99", "queries", "remote-hits")
	for _, r := range rep.Rows {
		fmt.Printf("%6d %-6s %6d %9.3fs %10.1f %8.1fms %8.1fms %9d %12d\n",
			r.Nodes, r.Round, r.Jobs, r.Seconds, r.JobsPerSec, r.P50MS, r.P99MS, r.Queries, r.RemoteHits)
	}
	for _, s := range rep.Scaling {
		fmt.Printf("nodes=%d: warm %.1f jobs/s (%.2fx over one node), ring %d hits / %d puts, %d jobs proxied to their owner\n",
			s.Nodes, s.WarmJobsPerSec, s.SpeedupOverOne, s.RingHits, s.RingPuts, s.RoutedProxied)
	}
	fmt.Printf("verdicts byte-identical across fleet sizes: %v\n\n", rep.VerdictsIdentical)
}

func printBugs(timeout time.Duration) {
	rows, err := experiments.Bugs(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Bugs found (section 6) ==")
	fmt.Printf("%-18s %14s %22s\n", "benchmark", "deterministic", "fix verifies (det+idem)")
	found := 0
	for _, r := range rows {
		switch {
		case r.TimedOut:
			fmt.Printf("%-18s %14s\n", r.Name, "TIMEOUT")
		case r.Deterministic:
			fmt.Printf("%-18s %14s %22s\n", r.Name, "yes", "-")
		default:
			found++
			verifies := "no"
			if r.FixVerifies {
				verifies = "yes"
			}
			fmt.Printf("%-18s %14s %22s\n", r.Name, "NO", verifies)
		}
	}
	fmt.Printf("\n%d of %d benchmarks have determinism bugs (paper: 6 of 13)\n\n", found, len(rows))
}
