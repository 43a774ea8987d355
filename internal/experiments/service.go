package experiments

// The rehearsald service experiment: what does a warm, shared substrate
// buy over one-shot verification? A fleet of manifests (sliding package
// windows over a common dependency pool, so their pairwise
// semantic-commutativity queries overlap heavily) is pushed through one
// daemon scheduler in three rounds:
//
//	cold      fresh substrate, empty caches — every semantic query solved
//	warm      equivalent manifests with distinct digests — same resource
//	          sets, so every query is answered by the substrate's shared
//	          verdict cache; only load/compile/explore is re-done
//	resubmit  byte-identical re-submissions — answered entirely by the
//	          scheduler's dedup/result layer, no engine work at all
//
// Rows record throughput and client-observed p50/p99 job latency at
// service worker counts 1, 4 and 8.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func shutdownContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// ServiceRow is one (worker count, round) configuration of the service
// experiment.
type ServiceRow struct {
	Workers    int     `json:"workers"`
	Round      string  `json:"round"` // cold | warm | resubmit
	Jobs       int     `json:"jobs"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	// Queries counts solver queries actually run this round; CacheHits the
	// semantic verdicts answered from the substrate's shared cache.
	Queries   int `json:"queries"`
	CacheHits int `json:"cache_hits"`
	// Deduped counts submissions answered without creating a job.
	Deduped int `json:"deduped"`
}

// ServiceSpeedup summarizes one worker count: warm-over-cold is the
// substrate's cross-request cache payoff, resubmit-over-cold the result
// layer's.
type ServiceSpeedup struct {
	Workers          int     `json:"workers"`
	WarmOverCold     float64 `json:"warm_over_cold"`
	ResubmitOverCold float64 `json:"resubmit_over_cold"`
}

// ServiceWorkerCounts are the daemon worker-pool sizes measured.
var ServiceWorkerCounts = []int{1, 4, 8}

// serviceWindow is the number of packages per manifest in the fleet.
const serviceWindow = 4

// serviceFleet builds the job fleet: n manifests, each installing a
// k-package window (wrapping) of the shared workload pool. Neighboring
// windows share most of their package pairs, so the fleet's semantic
// queries overlap the way a real site's role manifests do.
func serviceFleet(n int, round string) []service.JobRequest {
	reqs := make([]service.JobRequest, 0, n)
	for i := 0; i < n; i++ {
		manifest := fmt.Sprintf("# %s fleet manifest %d\n", round, i)
		for j := 0; j < serviceWindow; j++ {
			manifest += fmt.Sprintf("package {'svc-%d': ensure => present }\n", 1+(i+j)%n)
		}
		reqs = append(reqs, service.JobRequest{
			Manifest:        manifest,
			SemanticCommute: true,
			Checks:          []string{service.CheckDeterminism},
		})
	}
	return reqs
}

// runServiceRound pushes one round of jobs through the scheduler and
// reports client-observed latencies plus the engine-work delta.
func runServiceRound(svc *service.Server, reqs []service.JobRequest, workers int, round string) (ServiceRow, error) {
	type outcome struct {
		job     *service.Job
		deduped bool
		lat     time.Duration
	}
	start := time.Now()
	outs := make([]outcome, 0, len(reqs))
	// Submit everything up front (the queue is sized for the fleet), then
	// wait: throughput is governed by the worker pool, as in production.
	for _, req := range reqs {
		job, deduped, err := svc.Submit(req)
		if err != nil {
			return ServiceRow{}, fmt.Errorf("service round %s: %w", round, err)
		}
		outs = append(outs, outcome{job: job, deduped: deduped})
	}
	queries, hits := 0, 0
	for i := range outs {
		<-outs[i].job.Done()
		outs[i].lat = time.Since(start)
		rep := outs[i].job.Report()
		if rep == nil || rep.Error != nil {
			return ServiceRow{}, fmt.Errorf("service round %s: job %s failed: %+v", round, outs[i].job.ID, rep)
		}
		if !outs[i].deduped && rep.Stats != nil {
			queries += rep.Stats.SemQueries
			hits += rep.Stats.SemCacheHits
		}
	}
	elapsed := time.Since(start)

	lats := make([]time.Duration, 0, len(outs))
	deduped := 0
	for _, o := range outs {
		lats = append(lats, o.lat)
		if o.deduped {
			deduped++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return ServiceRow{
		Workers:    workers,
		Round:      round,
		Jobs:       len(reqs),
		Seconds:    elapsed.Seconds(),
		JobsPerSec: float64(len(reqs)) / elapsed.Seconds(),
		P50MS:      quantileMS(lats, 0.50),
		P99MS:      quantileMS(lats, 0.99),
		Queries:    queries,
		CacheHits:  hits,
		Deduped:    deduped,
	}, nil
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

// ServiceBench runs the three rounds at each worker count. fleetSize is
// the number of manifests per round (0 means 12).
func ServiceBench(timeout time.Duration, fleetSize int) ([]ServiceRow, []ServiceSpeedup, error) {
	if fleetSize <= 0 {
		fleetSize = 12
	}
	_, provider := ParallelWorkload(fleetSize)
	rows := make([]ServiceRow, 0, 3*len(ServiceWorkerCounts))
	speedups := make([]ServiceSpeedup, 0, len(ServiceWorkerCounts))
	for _, workers := range ServiceWorkerCounts {
		core.ResetSolverPools()
		sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: provider})
		if err != nil {
			return nil, nil, err
		}
		base := options(timeout)
		base.Parallelism = 1 // service-level parallelism is the variable
		svc, err := service.New(service.Config{
			Workers:     workers,
			QueueDepth:  4 * fleetSize,
			JobTimeout:  timeout,
			Substrate:   sub,
			BaseOptions: &base,
		})
		if err != nil {
			return nil, nil, err
		}

		cold, err := runServiceRound(svc, serviceFleet(fleetSize, "cold"), workers, "cold")
		if err != nil {
			return nil, nil, err
		}
		warmFleet := serviceFleet(fleetSize, "warm")
		warm, err := runServiceRound(svc, warmFleet, workers, "warm")
		if err != nil {
			return nil, nil, err
		}
		resubmit, err := runServiceRound(svc, warmFleet, workers, "resubmit")
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, cold, warm, resubmit)
		sp := ServiceSpeedup{Workers: workers}
		if warm.Seconds > 0 {
			sp.WarmOverCold = cold.Seconds / warm.Seconds
		}
		if resubmit.Seconds > 0 {
			sp.ResubmitOverCold = cold.Seconds / resubmit.Seconds
		}
		speedups = append(speedups, sp)

		ctx, cancel := shutdownContext()
		err = svc.Shutdown(ctx)
		cancel()
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, speedups, nil
}

// ServiceReport is the BENCH_service.json trajectory point.
type ServiceReport struct {
	Benchmark string           `json:"benchmark"`
	Workload  string           `json:"workload"`
	HostCPUs  int              `json:"host_cpus"`
	Rows      []ServiceRow     `json:"rows"`
	Speedups  []ServiceSpeedup `json:"speedups"`
}

// BuildServiceReport runs the service experiment end to end.
func BuildServiceReport(timeout time.Duration) (*ServiceReport, error) {
	const fleetSize = 12
	rows, speedups, err := ServiceBench(timeout, fleetSize)
	if err != nil {
		return nil, err
	}
	return &ServiceReport{
		Benchmark: "BenchmarkServiceWarmSubstrate",
		Workload: fmt.Sprintf("%d role manifests, %d-package sliding windows over a shared dependency pool; rounds: cold substrate, warm substrate (distinct digests), identical resubmission",
			fleetSize, serviceWindow),
		HostCPUs: runtime.NumCPU(),
		Rows:     rows,
		Speedups: speedups,
	}, nil
}

// Write writes the report as indented JSON to path.
func (r *ServiceReport) Write(path string) error { return writeJSON(path, r) }
