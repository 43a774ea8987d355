package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/qcache"
)

// InterningRow is one configuration of the hash-consed-IR experiment.
type InterningRow struct {
	Mode           string        `json:"mode"`
	Time           time.Duration `json:"-"`
	Seconds        float64       `json:"seconds"`
	Queries        int           `json:"queries"`          // solver queries run
	InternHits     int64         `json:"intern_hits"`      // hash-consing table hits while compiling
	EncodeMemoHits int64         `json:"encode_memo_hits"` // symbolic applications served by session memos
	DiskCacheHits  int           `json:"disk_cache_hits"`  // verdicts answered by the on-disk tier
	TimedOut       bool          `json:"timed_out"`
}

// InterningWorkers is the worker count of the interning experiment: one.
// The experiment varies the encode strategy, and a single worker keeps the
// comparison clean — one session sees every query (so the warm mode's memo
// coverage is total, not split across per-worker sessions).
const InterningWorkers = 1

// EncodeMemoSpeedup measures the determinacy check on the parallel
// workload under three encode strategies: fresh-plain (isolated solver per
// query over plain trees — every query compiles all four component
// subtrees from scratch), interned-cold (hash-consed models, pooled
// sessions starting empty — each distinct subtree compiles once) and
// interned-warm (sessions already primed by a previous check). Every run
// gets a private cold query cache; verdicts are identical across modes
// (internal/core's differential tests enforce it), so rows measure pure
// encode amortization.
func EncodeMemoSpeedup(timeout time.Duration) ([]InterningRow, error) {
	manifest, provider := ParallelWorkload(ParallelWorkloadSize)
	base := options(timeout)
	base.Provider = provider
	base.SemanticCommute = true
	base.Parallelism = InterningWorkers

	modes := []struct {
		name  string
		plain bool
		fresh bool
		reset bool
	}{
		{"fresh-plain", true, true, true},
		{"interned-cold", false, false, true},
		{"interned-warm", false, false, false}, // sessions primed by interned-cold
	}
	rows := make([]InterningRow, 0, len(modes))
	for _, m := range modes {
		if m.reset {
			core.ResetSolverPools()
		}
		opts := base
		opts.DisableInterning = m.plain
		opts.FreshSolvers = m.fresh
		opts.SharedQueryCache = qcache.New()
		res, elapsed, timedOut, err := check(manifest, opts)
		if err != nil {
			return nil, fmt.Errorf("interning workload (%s): %w", m.name, err)
		}
		row := InterningRow{Mode: m.name, Time: elapsed, Seconds: elapsed.Seconds(), TimedOut: timedOut}
		if res != nil {
			if !res.Deterministic {
				return nil, fmt.Errorf("interning workload must be deterministic")
			}
			row.Queries = res.Stats.SemQueries
			row.InternHits = res.Stats.InternHits
			row.EncodeMemoHits = res.Stats.EncodeMemoHits
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DiskCacheSpeedup measures the two-tier verdict cache across process
// restarts: a cold check (empty directory, every verdict solved and
// written through) and a warm check of the same manifest with a fresh
// memory tier over the same directory. The warm run must answer every semantic decision from disk —
// zero solver queries — or the function errors; the CI smoke job leans on
// this self-check.
func DiskCacheSpeedup(timeout time.Duration) ([]InterningRow, error) {
	dir, err := os.MkdirTemp("", "qcache-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	manifest, provider := ParallelWorkload(ParallelWorkloadSize)
	base := options(timeout)
	base.Provider = provider
	base.SemanticCommute = true
	base.Parallelism = InterningWorkers
	base.CacheDir = dir

	var rows []InterningRow
	for _, mode := range []string{"disk-cold", "disk-warm"} {
		core.ResetSolverPools() // warm pools would mask the disk tier
		opts := base
		opts.SharedQueryCache = qcache.New() // fresh memory tier each run
		res, elapsed, timedOut, err := check(manifest, opts)
		if err != nil {
			return nil, fmt.Errorf("disk-cache workload (%s): %w", mode, err)
		}
		row := InterningRow{Mode: mode, Time: elapsed, Seconds: elapsed.Seconds(), TimedOut: timedOut}
		if res != nil {
			row.Queries = res.Stats.SemQueries
			row.InternHits = res.Stats.InternHits
			row.DiskCacheHits = res.Stats.DiskCacheHits
		}
		rows = append(rows, row)
	}
	cold, warm := rows[0], rows[1]
	if warm.Queries != 0 {
		return nil, fmt.Errorf("warm disk-cache run executed %d solver queries; want 0", warm.Queries)
	}
	if cold.Queries > 0 && warm.DiskCacheHits == 0 {
		return nil, fmt.Errorf("cold run solved %d queries but warm run reported no disk hits", cold.Queries)
	}
	return rows, nil
}

// DigestSeries compares digesting the workload's resource models as plain
// trees (a full Merkle walk per call) against hash-consed nodes (a pointer
// read): the O(size) → O(1) shift every qcache key construction rides on.
type DigestSeries struct {
	Exprs           int     `json:"exprs"`            // models digested per pass
	Passes          int     `json:"passes"`           // digest passes timed
	PlainSeconds    float64 `json:"plain_seconds"`    // total, plain trees
	InternedSeconds float64 `json:"interned_seconds"` // total, interned nodes
	Speedup         float64 `json:"speedup"`          // plain / interned
}

// digestPasses is sized so the plain series takes milliseconds, not
// microseconds, on a typical host — enough to dominate timer noise.
const digestPasses = 200

func measureDigests(timeout time.Duration) (*DigestSeries, error) {
	manifest, provider := ParallelWorkload(ParallelWorkloadSize)
	load := func(plain bool) ([]fs.Expr, error) {
		opts := options(timeout)
		opts.Provider = provider
		opts.DisableInterning = plain
		sys, err := core.Load(manifest, opts)
		if err != nil {
			return nil, err
		}
		g := sys.ExprGraph()
		var exprs []fs.Expr
		for _, n := range g.Nodes() {
			exprs = append(exprs, g.Label(n))
		}
		return exprs, nil
	}
	plainExprs, err := load(true)
	if err != nil {
		return nil, err
	}
	internedExprs, err := load(false)
	if err != nil {
		return nil, err
	}
	time1 := func(exprs []fs.Expr) float64 {
		start := time.Now()
		var sink byte
		for i := 0; i < digestPasses; i++ {
			for _, e := range exprs {
				d := fs.DigestExpr(e)
				sink ^= d[0]
			}
		}
		_ = sink
		return time.Since(start).Seconds()
	}
	s := &DigestSeries{
		Exprs:           len(plainExprs),
		Passes:          digestPasses,
		PlainSeconds:    time1(plainExprs),
		InternedSeconds: time1(internedExprs),
	}
	if s.InternedSeconds > 0 {
		s.Speedup = s.PlainSeconds / s.InternedSeconds
	}
	return s, nil
}

// InterningReport is the BENCH_interning.json trajectory point: the
// encode-memoization series, the disk-tier series and the digest
// micro-series, plus host context.
type InterningReport struct {
	Benchmark         string         `json:"benchmark"`
	Workload          string         `json:"workload"`
	HostCPUs          int            `json:"host_cpus"`
	Workers           int            `json:"workers"`
	Encode            []InterningRow `json:"encode"`
	Disk              []InterningRow `json:"disk"`
	Digest            *DigestSeries  `json:"digest"`
	EncodeColdSpeedup float64        `json:"encode_cold_speedup"` // fresh-plain / interned-cold
	EncodeWarmSpeedup float64        `json:"encode_warm_speedup"` // fresh-plain / interned-warm
	DiskWarmSpeedup   float64        `json:"disk_warm_speedup"`   // disk-cold / disk-warm
}

// BuildInterningReport runs all three series of the interning experiment.
func BuildInterningReport(timeout time.Duration) (*InterningReport, error) {
	encode, err := EncodeMemoSpeedup(timeout)
	if err != nil {
		return nil, err
	}
	disk, err := DiskCacheSpeedup(timeout)
	if err != nil {
		return nil, err
	}
	digest, err := measureDigests(timeout)
	if err != nil {
		return nil, err
	}
	return &InterningReport{
		Benchmark: "BenchmarkInterningSpeedup",
		Workload: fmt.Sprintf("%d packages with overlapping dependency closures: %d pairwise semantic-commutativity queries at %d worker(s)",
			ParallelWorkloadSize, ParallelWorkloadSize*(ParallelWorkloadSize-1)/2, InterningWorkers),
		HostCPUs:          runtime.NumCPU(),
		Workers:           InterningWorkers,
		Encode:            encode,
		Disk:              disk,
		Digest:            digest,
		EncodeColdSpeedup: interningSpeedup(encode, "fresh-plain", "interned-cold"),
		EncodeWarmSpeedup: interningSpeedup(encode, "fresh-plain", "interned-warm"),
		DiskWarmSpeedup:   interningSpeedup(disk, "disk-cold", "disk-warm"),
	}, nil
}

// Write writes the report as indented JSON to path.
func (r *InterningReport) Write(path string) error { return writeJSON(path, r) }

func interningSpeedup(rows []InterningRow, baseMode, mode string) float64 {
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
