package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/qcache"
)

// IncrementalRow is one configuration of the incremental-backend
// experiment: the semantic-commute-heavy workload checked with a given
// solver strategy.
type IncrementalRow struct {
	Mode           string        `json:"mode"` // fresh | pooled-cold | pooled-warm
	Time           time.Duration `json:"-"`
	Seconds        float64       `json:"seconds"`
	Queries        int           `json:"queries"`         // solver queries run
	SolverReuses   int           `json:"solver_reuses"`   // queries answered by a pooled solver
	LearntRetained int           `json:"learnt_retained"` // learnt clauses alive in the pool afterwards
	TimedOut       bool          `json:"timed_out"`
}

// IncrementalWorkers is the worker count every incremental-experiment row
// runs at; the experiment varies solver strategy, not parallelism.
const IncrementalWorkers = 4

// IncrementalSpeedup measures the determinacy check on the parallel
// workload under three solver strategies: fresh (an isolated solver per
// query — the pre-incremental baseline), pooled-cold (incremental solver
// pool, starting empty) and pooled-warm (the pool already primed by a
// previous check of the same vocabulary). Every run uses a private, cold
// query cache so no row reads verdicts another row computed; verdicts are
// identical across strategies (the differential tests in internal/core
// enforce it), so the rows measure pure solver-reuse speedup: the
// encoder/solver construction and re-compilation time a pooled session
// saves.
func IncrementalSpeedup(timeout time.Duration) ([]IncrementalRow, error) {
	manifest, provider := ParallelWorkload(ParallelWorkloadSize)
	base := options(timeout)
	base.Provider = provider
	base.SemanticCommute = true
	base.Parallelism = IncrementalWorkers

	modes := []struct {
		name  string
		fresh bool
		reset bool
	}{
		{"fresh", true, true},
		{"pooled-cold", false, true},
		{"pooled-warm", false, false}, // pool primed by the pooled-cold run
	}
	rows := make([]IncrementalRow, 0, len(modes))
	for _, m := range modes {
		if m.reset {
			core.ResetSolverPools()
		}
		opts := base
		opts.FreshSolvers = m.fresh
		opts.SharedQueryCache = qcache.New()
		res, elapsed, timedOut, err := check(manifest, opts)
		if err != nil {
			return nil, fmt.Errorf("incremental workload (%s): %w", m.name, err)
		}
		row := IncrementalRow{Mode: m.name, Time: elapsed, Seconds: elapsed.Seconds(), TimedOut: timedOut}
		if res != nil {
			if !res.Deterministic {
				return nil, fmt.Errorf("incremental workload must be deterministic")
			}
			row.Queries = res.Stats.SemQueries
			row.SolverReuses = res.Stats.SolverReuses
			row.LearntRetained = res.Stats.LearntRetained
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// IncrementalReport is the BENCH_incremental.json trajectory point: the
// native series of the incremental-backend experiment plus host context.
// Pooling trades per-query vocabulary size (the shared vocabulary spans
// every resource in the check, not just the pair's) for amortized
// compilation; on in-process solvers that trade can come out at or below
// break-even.
type IncrementalReport struct {
	Benchmark         string           `json:"benchmark"`
	Workload          string           `json:"workload"`
	HostCPUs          int              `json:"host_cpus"`
	Workers           int              `json:"workers"`
	Native            []IncrementalRow `json:"native"`
	NativeWarmSpeedup float64          `json:"native_warm_speedup"` // fresh / pooled-warm
	NativeColdSpeedup float64          `json:"native_cold_speedup"` // fresh / pooled-cold
}

// BuildIncrementalReport runs the incremental experiment.
func BuildIncrementalReport(timeout time.Duration) (*IncrementalReport, error) {
	native, err := IncrementalSpeedup(timeout)
	if err != nil {
		return nil, err
	}
	return &IncrementalReport{
		Benchmark: "BenchmarkIncrementalSpeedup",
		Workload: fmt.Sprintf("%d packages with overlapping dependency closures: %d pairwise semantic-commutativity queries at %d workers",
			ParallelWorkloadSize, ParallelWorkloadSize*(ParallelWorkloadSize-1)/2, IncrementalWorkers),
		HostCPUs:          runtime.NumCPU(),
		Workers:           IncrementalWorkers,
		Native:            native,
		NativeWarmSpeedup: speedupOver(native, "fresh", "pooled-warm"),
		NativeColdSpeedup: speedupOver(native, "fresh", "pooled-cold"),
	}, nil
}

// Write writes the report as indented JSON to path.
func (r *IncrementalReport) Write(path string) error { return writeJSON(path, r) }

func speedupOver(rows []IncrementalRow, baseMode, mode string) float64 {
	var base, at float64
	for _, r := range rows {
		if r.Mode == baseMode {
			base = r.Seconds
		}
		if r.Mode == mode {
			at = r.Seconds
		}
	}
	if base == 0 || at == 0 {
		return 0
	}
	return base / at
}
