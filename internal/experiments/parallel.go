package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// ParallelRow is one configuration of the parallel-speedup experiment:
// the semantic-commute-heavy workload checked with a given worker count.
type ParallelRow struct {
	Workers   int           `json:"workers"`
	Time      time.Duration `json:"-"`
	Seconds   float64       `json:"seconds"`
	Queries   int           `json:"queries"`    // solver queries run
	CacheHits int           `json:"cache_hits"` // served by the shared cache
	TimedOut  bool          `json:"timed_out"`
}

// ParallelWorkloadSize is the number of mutually-overlapping packages in
// the speedup workload; every pair needs one solver query, so the check
// issues n(n-1)/2 independent semantic-commutativity queries.
const ParallelWorkloadSize = 8

// ParallelWorkload builds the semantic-commute-heavy manifest the speedup
// experiment checks: n packages that all depend on a shared library
// package. Syntactically every pair conflicts (both write the shared
// closure's files), so without the semantic check the exploration is
// factorial; semantically every pair commutes (both guard the shared
// files with the same installed-marker check), so the whole check reduces
// to n(n-1)/2 embarrassingly-parallel solver queries plus elimination.
func ParallelWorkload(n int) (string, pkgdb.Provider) {
	catalog := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libcommon", Version: "1.0"}
	for i := 0; i < 16; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libcommon/lib%03d", i))
	}
	catalog.Add("ubuntu", lib)
	manifest := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("svc-%d", i)
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"libcommon"}}
		for j := 0; j < 8; j++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/lib%03d", name, j))
		}
		catalog.Add("ubuntu", p)
		manifest += fmt.Sprintf("package {'%s': ensure => present }\n", name)
	}
	return manifest, catalog
}

// ParallelSpeedup measures the determinacy check on the parallel workload
// at each worker count. Every run uses a private, cold query cache and a
// cold solver pool so the configurations are comparable; verdicts are identical at any worker
// count (the analysis order is sequential and the queries deterministic),
// so the rows measure pure solver-fan-out speedup, bounded by the host's
// core count.
func ParallelSpeedup(timeout time.Duration, workers []int) ([]ParallelRow, error) {
	manifest, provider := ParallelWorkload(ParallelWorkloadSize)
	rows := make([]ParallelRow, 0, len(workers))
	for _, w := range workers {
		core.ResetSolverPools()
		opts := options(timeout)
		opts.Provider = provider
		opts.SemanticCommute = true
		opts.Parallelism = w
		opts.SharedQueryCache = qcache.New()
		res, elapsed, timedOut, err := check(manifest, opts)
		if err != nil {
			return nil, fmt.Errorf("parallel workload at %d workers: %w", w, err)
		}
		row := ParallelRow{Workers: w, Time: elapsed, Seconds: elapsed.Seconds(), TimedOut: timedOut}
		if res != nil {
			if !res.Deterministic {
				return nil, fmt.Errorf("parallel workload must be deterministic")
			}
			row.Queries = res.Stats.SemQueries
			row.CacheHits = res.Stats.SemCacheHits
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ParallelReport is the BENCH_parallel.json trajectory point: the native
// speedup series plus enough host context to interpret it. Queries run
// in-process, so the speedup is bounded by HostCPUs.
type ParallelReport struct {
	Benchmark      string        `json:"benchmark"`
	Workload       string        `json:"workload"`
	HostCPUs       int           `json:"host_cpus"`
	Native         []ParallelRow `json:"native"`
	NativeSpeedup4 float64       `json:"native_speedup_at_4"`
}

// BuildParallelReport runs the speedup experiment.
func BuildParallelReport(timeout time.Duration, workers []int) (*ParallelReport, error) {
	native, err := ParallelSpeedup(timeout, workers)
	if err != nil {
		return nil, err
	}
	return &ParallelReport{
		Benchmark: "BenchmarkParallelSpeedup",
		Workload: fmt.Sprintf("%d packages with overlapping dependency closures: %d pairwise semantic-commutativity queries",
			ParallelWorkloadSize, ParallelWorkloadSize*(ParallelWorkloadSize-1)/2),
		HostCPUs:       runtime.NumCPU(),
		Native:         native,
		NativeSpeedup4: speedupAt(native, 4),
	}, nil
}

// Write writes the report as indented JSON to path.
func (r *ParallelReport) Write(path string) error { return writeJSON(path, r) }

func speedupAt(rows []ParallelRow, workers int) float64 {
	var base, at float64
	for _, r := range rows {
		if r.Workers == 1 {
			base = r.Seconds
		}
		if r.Workers == workers {
			at = r.Seconds
		}
	}
	if base == 0 || at == 0 {
		return 0
	}
	return base / at
}
