package repro

// One benchmark per table/figure of the paper's evaluation (section 6).
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure series are also printed in paper-style tables by
// cmd/experiments; EXPERIMENTS.md records paper-vs-measured shapes.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/qcache"
)

func loadOrFatal(b *testing.B, src string, opts core.Options) *core.System {
	b.Helper()
	sys, err := core.Load(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFig11aPaths reports the paths-per-state metric of figure 11a:
// modeled paths before (unpruned) and after (pruned) elimination+pruning,
// per benchmark.
func BenchmarkFig11aPaths(b *testing.B) {
	for _, bench := range benchmarks.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var pruned, unpruned int
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				pruned, unpruned = res.Stats.Paths, res.Stats.TotalPaths
			}
			b.ReportMetric(float64(unpruned), "paths-unpruned")
			b.ReportMetric(float64(pruned), "paths-pruned")
		})
	}
}

// BenchmarkFig11bPruning measures the determinacy check with the full
// analysis (pruning+elimination on) versus with shrinking disabled, both
// with commutativity checking — figure 11b.
func BenchmarkFig11bPruning(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		prune bool
	}{{"PruneOff", false}, {"PruneOn", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for _, bench := range benchmarks.All() {
				bench := bench
				b.Run(bench.Name, func(b *testing.B) {
					opts := core.DefaultOptions()
					opts.Pruning = cfg.prune
					opts.Elimination = cfg.prune
					opts.Timeout = time.Minute
					for i := 0; i < b.N; i++ {
						sys := loadOrFatal(b, bench.Source, opts)
						if _, err := sys.CheckDeterminism(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkFig11cCommutativity measures the determinacy check with and
// without commutativity-based partial-order reduction (pruning off in
// both) — figure 11c. The Off configuration explodes factorially on the
// larger benchmarks, reproducing the paper's timeouts; it runs under a
// short deadline and reports timeouts-per-op instead of failing.
func BenchmarkFig11cCommutativity(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		commut bool
	}{{"CommutOff", false}, {"CommutOn", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for _, bench := range benchmarks.All() {
				bench := bench
				b.Run(bench.Name, func(b *testing.B) {
					opts := core.DefaultOptions()
					opts.Commutativity = cfg.commut
					opts.Pruning = false
					opts.Elimination = false
					opts.Timeout = 5 * time.Second
					timeouts := 0
					for i := 0; i < b.N; i++ {
						sys := loadOrFatal(b, bench.Source, opts)
						if _, err := sys.CheckDeterminism(); errors.Is(err, core.ErrTimeout) {
							timeouts++
						} else if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
				})
			}
		})
	}
}

// BenchmarkFig12Idempotence measures the idempotence check on the
// verified suite (seven deterministic benchmarks plus six fixes) —
// figure 12.
func BenchmarkFig12Idempotence(b *testing.B) {
	for _, bench := range benchmarks.Verified() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sys.CheckIdempotence()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Idempotent {
					b.Fatalf("%s not idempotent", bench.Name)
				}
			}
		})
	}
}

// BenchmarkFig13Scaling measures the deliberate worst case of figure 13
// for n = 2..6 interfering resources; the time grows super-linearly with
// the factorial number of linearizations.
func BenchmarkFig13Scaling(b *testing.B) {
	for n := 2; n <= 6; n++ {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			manifest, provider := experiments.Fig13Manifest(n)
			opts := core.DefaultOptions()
			opts.Provider = provider
			opts.MaxSequences = 1000000
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("fig 13 manifest must be deterministic")
				}
			}
		})
	}
}

// BenchmarkBugsFound measures the full section-6 bug-finding pass: check
// all thirteen benchmarks and fail unless exactly the six known bugs are
// found.
func BenchmarkBugsFound(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Timeout = time.Minute
	for i := 0; i < b.N; i++ {
		found := 0
		for _, bench := range benchmarks.All() {
			sys := loadOrFatal(b, bench.Source, opts)
			res, err := sys.CheckDeterminism()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Deterministic {
				found++
			}
		}
		if found != 6 {
			b.Fatalf("found %d bugs, want 6", found)
		}
	}
}

// sleepSetWorkload builds the shape that separates the two POR designs:
// two file resources managing the same path (a genuine conflict) plus k
// users. The users commute with each other but each also touches the
// shared /etc directory the files read, so no ready resource ever
// qualifies as a figure-9a pivot: pivot-only exploration is factorial in
// k+2, while sleep sets bound it by the number of Mazurkiewicz traces
// (quadratic in k here: the users' relative order never matters).
func sleepSetWorkload(k int) string {
	manifest := `
file {'motd-a': path => '/etc/motd', content => 'a' }
file {'motd-b': path => '/etc/motd', content => 'b' }
`
	for i := 0; i < k; i++ {
		manifest += fmt.Sprintf("user {'u%d': ensure => present }\n", i)
	}
	return manifest
}

// BenchmarkAblationSleepSets measures the design choice DESIGN.md calls
// out: the pivot rule alone versus pivot + sleep sets.
func BenchmarkAblationSleepSets(b *testing.B) {
	manifest := sleepSetWorkload(6)
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"PivotOnly", true}, {"PivotPlusSleep", false}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Elimination = false // keep the conflict in the graph
			opts.Pruning = false
			opts.DisableSleepSets = cfg.disable
			opts.Timeout = 15 * time.Second
			timeouts := 0
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if errors.Is(err, core.ErrTimeout) {
					timeouts++
				} else if err != nil {
					b.Fatal(err)
				} else if res.Deterministic {
					b.Fatal("conflicting motd contents must be non-deterministic")
				}
			}
			b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
		})
	}
}

// BenchmarkAblationSemanticCommute measures the semantic-commutativity
// extension on three packages with overlapping dependency closures (git,
// amavisd-new and golang-go all pull in perl): syntactically every pair
// conflicts, so all 3! traces must be enumerated and solved jointly;
// semantically the pairs commute and the whole check collapses to
// elimination (measured ~11x faster).
func BenchmarkAblationSemanticCommute(b *testing.B) {
	const manifest = `
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
package {'golang-go': ensure => present }
`
	for _, cfg := range []struct {
		name     string
		semantic bool
	}{{"Syntactic", false}, {"Semantic", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.SemanticCommute = cfg.semantic
			opts.Timeout = 2 * time.Minute
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("overlapping closures must be deterministic")
				}
			}
		})
	}
}

// BenchmarkParallelSpeedup measures the parallel determinacy engine on
// the semantic-commute-heavy workload (8 packages with overlapping
// dependency closures, 28 pairwise solver queries) at 1/2/4/8 workers.
// Queries run in-process, so the speedup is bounded by the host's core
// count (flat on a single-core host). Each iteration uses a cold private
// cache so runs are comparable; see BENCH_parallel.json for a recorded
// trajectory point (cmd/experiments -parallel-bench -parallel-out
// BENCH_parallel.json).
func BenchmarkParallelSpeedup(b *testing.B) {
	manifest, provider := experiments.ParallelWorkload(experiments.ParallelWorkloadSize)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Provider = provider
			opts.SemanticCommute = true
			opts.Parallelism = workers
			opts.Timeout = 5 * time.Minute
			for i := 0; i < b.N; i++ {
				opts.SharedQueryCache = qcache.New() // cold cache per run
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("parallel workload must be deterministic")
				}
			}
		})
	}
}

// BenchmarkFleetDeterminism measures a native determinacy verdict, from
// manifest text to verdict, on generated fleet manifests of about 400,
// 1,200, 2,400 and 10,000 resources (classes base → people → sites), so
// the growth of elimination and graph building with size stays visible.
// It runs all three fault classes: none (deterministic), local-dep and
// pkg-config (non-deterministic).
func BenchmarkFleetDeterminism(b *testing.B) {
	for _, n := range []int{400, 1200, 2400, 10000} {
		for f := benchmarks.FleetNone; f <= benchmarks.FleetPkgConfig; f++ {
			src := benchmarks.Fleet(n, f, 1)
			b.Run(fmt.Sprintf("resources=%d/%s", n, f), func(b *testing.B) {
				var res *core.DeterminismResult
				for i := 0; i < b.N; i++ {
					sys := loadOrFatal(b, src, core.DefaultOptions())
					var err error
					if res, err = sys.CheckDeterminism(); err != nil {
						b.Fatal(err)
					}
					if res.Deterministic != f.Deterministic() {
						b.Fatalf("deterministic = %v, want %v", res.Deterministic, f.Deterministic())
					}
				}
				b.ReportMetric(float64(res.Stats.Resources), "resources")
				b.ReportMetric(float64(res.Stats.Eliminated), "eliminated")
			})
		}
	}
}

// BenchmarkIncrementalSpeedup measures the incremental SMT backend on the
// semantic-commute-heavy workload at 4 workers, fresh solvers vs the
// pooled incremental path with a cold and a warm pool (pooling trades a
// wider shared vocabulary for amortized compilation — roughly break-even
// in-process). Each iteration uses a cold private cache, and the pool
// registry is reset (or pre-warmed) per mode so runs are comparable; see
// BENCH_incremental.json for a recorded trajectory point (cmd/experiments
// -incremental-bench -incremental-out BENCH_incremental.json).
func BenchmarkIncrementalSpeedup(b *testing.B) {
	manifest, provider := experiments.ParallelWorkload(experiments.ParallelWorkloadSize)
	for _, mode := range []struct {
		name  string
		fresh bool
		warm  bool
	}{{"fresh", true, false}, {"pooled-cold", false, false}, {"pooled-warm", false, true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Provider = provider
			opts.SemanticCommute = true
			opts.Parallelism = experiments.IncrementalWorkers
			opts.FreshSolvers = mode.fresh
			opts.Timeout = 5 * time.Minute
			run := func() *core.DeterminismResult {
				opts.SharedQueryCache = qcache.New() // cold cache per run
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("incremental workload must be deterministic")
				}
				return res
			}
			core.ResetSolverPools()
			if mode.warm {
				run() // prime the pool outside the timer
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if !mode.warm && !mode.fresh {
					b.StopTimer()
					core.ResetSolverPools() // cold pool per iteration
					b.StartTimer()
				}
				res := run()
				if !mode.fresh && res.Stats.SolverReuses == 0 {
					b.Fatal("pooled run reported no solver reuse")
				}
			}
		})
	}
}

// BenchmarkDiffSpeedup measures differential verification on the
// synthetic edit workload: a full determinacy check of the head version
// from a cold cache versus core.VerifyDiff against a base warmed into a
// shared cache, at a 1-of-8-packages edit (the diff path still pays load
// and exploration, so the gap is modest). Soundness (matching verdicts,
// exact inheritance, zero solver queries for inherited pairs) is enforced
// inside experiments.DiffSpeedup; see BENCH_diff.json for a recorded
// trajectory point (cmd/experiments -diff-bench -diff-out BENCH_diff.json).
func BenchmarkDiffSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DiffSpeedup(5*time.Minute, 8, []int{12}, []int{4})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.FullSeconds, "full-s")
			b.ReportMetric(r.DiffSeconds, "diff-s")
			b.ReportMetric(float64(r.PairsReused), "pairs-reused")
		}
	}
}

// BenchmarkDynamicBaseline measures the dynamic enumeration baseline of
// section 4.5 on a small benchmark, for comparison with the static check
// (the paper reports hours of container time; the simulated baseline
// reports its modeled cost as a metric).
func BenchmarkDynamicBaseline(b *testing.B) {
	bench, err := benchmarks.Get("monit")
	if err != nil {
		b.Fatal(err)
	}
	sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
	g := sys.ExprGraph()
	var modeled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := dynamic.Run(g, dynamic.Options{PerResourceLatency: 3 * time.Second})
		if !res.Deterministic {
			b.Fatal("monit should be deterministic")
		}
		modeled = res.ModeledCost
	}
	b.ReportMetric(modeled.Seconds(), "modeled-container-s")
}
