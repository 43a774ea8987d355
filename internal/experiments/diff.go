package experiments

// The differential-verification experiment behind BENCH_diff.json: how
// much of a full determinacy check the diff path (core.VerifyDiff)
// avoids when only a fraction of a manifest changed between versions.
//
// Two series:
//
//   - Synthetic matrix: the semantic-commute-heavy workload scaled to
//     DiffWorkloadSize packages, edited at 1/5/25% (each edit swaps one
//     package for an equivalent substitute) and checked at 1/4/8
//     workers. Full-from-scratch vs diff-against-a-warm-base.
//
//   - Hosting headline: the largest seed benchmark (hosting.pp) under a
//     catalog where the three LAMP packages share a base library, so a
//     full check pays pairwise semantic-commutativity queries. A
//     one-resource edit (one more Listen line in ports.conf) re-checks
//     under the diff path with every package pair inherited — zero
//     solver queries. A full check must take at least
//     MinHostingDiffSpeedup times as long as the diff.
//
// Both series self-check soundness, not just speed: diff verdicts must
// equal full verdicts, unchanged-pair inheritance must be exact (no
// inherit misses on these workloads) and inherited pairs must never
// reach the solver.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// DiffRow is one (edit fraction, worker count) configuration of the
// synthetic differential-verification matrix.
type DiffRow struct {
	EditPercent     int     `json:"edit_percent"`
	EditedResources int     `json:"edited_resources"`
	Workers         int     `json:"workers"`
	FullSeconds     float64 `json:"full_seconds"`
	DiffSeconds     float64 `json:"diff_seconds"`
	Speedup         float64 `json:"speedup"` // full / diff
	FullQueries     int     `json:"full_queries"`
	DiffQueries     int     `json:"diff_queries"`
	PairsReused     int     `json:"pairs_reused"`
	PairsReverified int     `json:"pairs_reverified"`
	InheritMisses   int     `json:"inherit_misses"`
	TimedOut        bool    `json:"timed_out"`
}

// DiffWorkloadSize is the package count of the synthetic series: large
// enough that the pairwise matrix (n(n-1)/2 = 66 queries) dwarfs the
// handful touched by a small edit, small enough that the one-worker
// full runs stay tractable (the pooled solver's shared vocabulary
// spans every closure in the check, so native per-query cost grows
// with n).
const DiffWorkloadSize = 12

// DiffEditPercents are the edit fractions of the synthetic matrix.
var DiffEditPercents = []int{1, 5, 25}

// DiffWorkers are the worker counts of the synthetic matrix.
var DiffWorkers = []int{1, 4, 8}

// DiffWorkload builds the base and head versions of the synthetic
// differential workload: n packages that all depend on a shared library
// (every pair needs one semantic-commutativity query, as in
// ParallelWorkload), where head swaps the first `edits` packages for
// equivalently-shaped substitutes. Unchanged pairs number
// (n-edits)(n-edits-1)/2; every pair touching a swapped package must be
// re-verified.
func DiffWorkload(n, edits int) (base, head string, provider pkgdb.Provider) {
	catalog := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libcommon", Version: "1.0"}
	for i := 0; i < 16; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libcommon/lib%03d", i))
	}
	catalog.Add("ubuntu", lib)
	add := func(name string) {
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"libcommon"}}
		for j := 0; j < 8; j++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/lib%03d", name, j))
		}
		catalog.Add("ubuntu", p)
	}
	var b, h strings.Builder
	for i := 1; i <= n; i++ {
		svc := fmt.Sprintf("svc-%d", i)
		add(svc)
		fmt.Fprintf(&b, "package {'%s': ensure => present }\n", svc)
		if i <= edits {
			alt := fmt.Sprintf("alt-%d", i)
			add(alt)
			fmt.Fprintf(&h, "package {'%s': ensure => present }\n", alt)
		} else {
			fmt.Fprintf(&h, "package {'%s': ensure => present }\n", svc)
		}
	}
	return b.String(), h.String(), catalog
}

// checkDiff times the incremental re-check: loading the head version
// and running core.VerifyDiff against a resident base system. The base
// is deliberately outside the timer — this is the rehearsald chaining
// scenario, where the daemon already holds the base job's compiled
// system and only the new manifest version arrives.
func checkDiff(baseSys *core.System, head string, opts core.Options) (*core.DeterminismResult, time.Duration, bool, error) {
	start := time.Now()
	headSys, err := core.Load(head, opts)
	if err != nil {
		return nil, 0, false, err
	}
	res, err := core.VerifyDiff(baseSys, headSys)
	elapsed := time.Since(start)
	if errors.Is(err, core.ErrTimeout) {
		return nil, elapsed, true, nil
	}
	if err != nil {
		return nil, elapsed, false, err
	}
	return res, elapsed, false, nil
}

// DiffSpeedup runs the synthetic matrix: for each edit fraction and
// worker count, a full check of the head version from a cold cache
// versus a differential check against a base warmed into a shared
// cache. Every row uses private caches and a reset solver pool so rows
// are independent. Load and exploration, which the diff path still pays
// in full, bound the ratio.
func DiffSpeedup(timeout time.Duration, n int, percents, workers []int) ([]DiffRow, error) {
	var rows []DiffRow
	for _, pct := range percents {
		edits := n * pct / 100
		if edits < 1 {
			edits = 1
		}
		base, head, provider := DiffWorkload(n, edits)
		unchanged := n - edits
		wantReused := unchanged * (unchanged - 1) / 2
		for _, w := range workers {
			opts := options(timeout)
			opts.Provider = provider
			opts.SemanticCommute = true
			opts.Parallelism = w

			// Full verification of head, from scratch.
			fullOpts := opts
			fullOpts.SharedQueryCache = qcache.New()
			core.ResetSolverPools()
			full, fullTime, fullTO, err := check(head, fullOpts)
			if err != nil {
				return nil, fmt.Errorf("diff workload (%d%% edit, %d workers) full: %w", pct, w, err)
			}

			// Warm a shared cache with the base version (setup, untimed),
			// then the timed differential re-check of head against it.
			warmOpts := opts
			warmOpts.SharedQueryCache = qcache.New()
			baseSys, err := core.Load(base, warmOpts)
			if err != nil {
				return nil, fmt.Errorf("diff workload (%d%% edit) base: %w", pct, err)
			}
			baseRes, err := baseSys.CheckDeterminism()
			if err != nil {
				return nil, fmt.Errorf("diff workload (%d%% edit) base: %w", pct, err)
			}
			if !baseRes.Deterministic {
				return nil, fmt.Errorf("diff workload base must be deterministic")
			}
			core.ResetSolverPools()
			res, diffTime, diffTO, err := checkDiff(baseSys, head, warmOpts)
			if err != nil {
				return nil, fmt.Errorf("diff workload (%d%% edit, %d workers) diff: %w", pct, w, err)
			}

			row := DiffRow{
				EditPercent:     pct,
				EditedResources: edits,
				Workers:         w,
				FullSeconds:     fullTime.Seconds(),
				DiffSeconds:     diffTime.Seconds(),
				TimedOut:        fullTO || diffTO,
			}
			if full != nil && res != nil {
				// Soundness self-checks: the diff path must agree with the
				// full check and must not have guessed any verdict.
				if res.Deterministic != full.Deterministic {
					return nil, fmt.Errorf("diff workload (%d%% edit, %d workers): diff verdict %v != full %v",
						pct, w, res.Deterministic, full.Deterministic)
				}
				if res.Stats.PairsReused != wantReused {
					return nil, fmt.Errorf("diff workload (%d%% edit, %d workers): reused %d pairs, want %d",
						pct, w, res.Stats.PairsReused, wantReused)
				}
				if res.Stats.InheritMisses != 0 {
					return nil, fmt.Errorf("diff workload (%d%% edit, %d workers): %d inherit misses, want 0",
						pct, w, res.Stats.InheritMisses)
				}
				if res.Stats.SemQueries != res.Stats.PairsReverified {
					return nil, fmt.Errorf("diff workload (%d%% edit, %d workers): %d solver queries for %d re-verified pairs (inherited pairs must not reach the solver)",
						pct, w, res.Stats.SemQueries, res.Stats.PairsReverified)
				}
				row.FullQueries = full.Stats.SemQueries
				row.DiffQueries = res.Stats.SemQueries
				row.PairsReused = res.Stats.PairsReused
				row.PairsReverified = res.Stats.PairsReverified
				row.InheritMisses = res.Stats.InheritMisses
				if row.DiffSeconds > 0 {
					row.Speedup = row.FullSeconds / row.DiffSeconds
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// HostingDiffResult is the headline measurement: a one-resource edit of
// the largest seed manifest re-verified differentially versus in full.
type HostingDiffResult struct {
	Manifest        string  `json:"manifest"`
	Workers         int     `json:"workers"`
	FullSeconds     float64 `json:"full_seconds"`
	DiffSeconds     float64 `json:"diff_seconds"`
	Speedup         float64 `json:"speedup"`
	FullQueries     int     `json:"full_queries"`
	DiffQueries     int     `json:"diff_queries"`
	DiffChanged     int     `json:"diff_changed"`
	DiffUnchanged   int     `json:"diff_unchanged"`
	PairsReused     int     `json:"pairs_reused"`
	PairsReverified int     `json:"pairs_reverified"`
	InheritMisses   int     `json:"inherit_misses"`
}

// HostingDiffWorkers pins the headline run to one worker: solver queries
// serialize, matching the paper's single Z3 process.
const HostingDiffWorkers = 1

// hostingDiffCatalog builds the enriched catalog the hosting series
// checks under: the default closures of the three LAMP packages plus a
// shared base library they all depend on, so every package pair writes
// the same closure files (a syntactic conflict discharged by one
// semantic-commutativity query each — the solver work a small edit
// should not have to repeat).
func hostingDiffCatalog() (pkgdb.Provider, error) {
	def := pkgdb.DefaultCatalog()
	cat := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libhosting-base", Version: "1.0"}
	for i := 0; i < 12; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libhosting-base/lib%03d", i))
	}
	cat.Add("ubuntu", lib)
	for _, name := range []string{"apache2", "mysql-server", "php5"} {
		closure, err := def.Closure("ubuntu", name)
		if err != nil {
			return nil, err
		}
		for _, p := range closure {
			q := *p
			if q.Name == name {
				q.Depends = append(append([]string(nil), q.Depends...), lib.Name)
			}
			cat.Add("ubuntu", &q)
		}
	}
	return cat, nil
}

// HostingDiffSpeedup measures a one-resource edit of hosting.pp (an
// extra Listen line in ports.conf) under the enriched catalog: a full
// check of the edited version versus a differential check against the
// original warmed into a shared cache. It self-checks soundness —
// matching verdicts, a one-resource delta, exact inheritance and zero
// solver queries on the diff run — and leaves the speedup threshold to
// the caller.
func HostingDiffSpeedup(timeout time.Duration) (*HostingDiffResult, error) {
	bench, err := benchmarks.Get("hosting")
	if err != nil {
		return nil, err
	}
	base := bench.Source
	// The manifest source spells newlines as literal \n escapes.
	const anchor = `Listen 80\nListen 443\n`
	head := strings.Replace(base, anchor, `Listen 80\nListen 443\nListen 8080\n`, 1)
	if head == base {
		return nil, fmt.Errorf("hosting diff: edit anchor %q not found in hosting.pp", anchor)
	}
	provider, err := hostingDiffCatalog()
	if err != nil {
		return nil, err
	}

	opts := options(timeout)
	opts.Provider = provider
	opts.SemanticCommute = true
	opts.Parallelism = HostingDiffWorkers

	fullOpts := opts
	fullOpts.SharedQueryCache = qcache.New()
	core.ResetSolverPools()
	full, fullTime, fullTO, err := check(head, fullOpts)
	if err != nil {
		return nil, fmt.Errorf("hosting diff full: %w", err)
	}
	if fullTO {
		return nil, fmt.Errorf("hosting diff: full check timed out")
	}
	if !full.Deterministic {
		return nil, fmt.Errorf("hosting diff: edited hosting.pp must stay deterministic")
	}
	if full.Stats.SemQueries < 3 {
		return nil, fmt.Errorf("hosting diff: full check ran %d semantic queries, want >=3 (the LAMP package pairs)", full.Stats.SemQueries)
	}

	warmOpts := opts
	warmOpts.SharedQueryCache = qcache.New()
	baseSys, err := core.Load(base, warmOpts)
	if err != nil {
		return nil, fmt.Errorf("hosting diff base: %w", err)
	}
	baseRes, err := baseSys.CheckDeterminism()
	if err != nil {
		return nil, fmt.Errorf("hosting diff base: %w", err)
	}
	if !baseRes.Deterministic {
		return nil, fmt.Errorf("hosting diff: hosting.pp must be deterministic")
	}
	core.ResetSolverPools()
	res, diffTime, diffTO, err := checkDiff(baseSys, head, warmOpts)
	if err != nil {
		return nil, fmt.Errorf("hosting diff: %w", err)
	}
	if diffTO {
		return nil, fmt.Errorf("hosting diff: diff check timed out")
	}
	if res.Deterministic != full.Deterministic {
		return nil, fmt.Errorf("hosting diff: diff verdict %v != full %v", res.Deterministic, full.Deterministic)
	}
	if res.Stats.DiffChanged != 1 {
		return nil, fmt.Errorf("hosting diff: delta classified %d resources changed, want 1", res.Stats.DiffChanged)
	}
	if res.Stats.InheritMisses != 0 {
		return nil, fmt.Errorf("hosting diff: %d inherit misses, want 0", res.Stats.InheritMisses)
	}
	if res.Stats.SemQueries != 0 {
		return nil, fmt.Errorf("hosting diff: diff run issued %d solver queries, want 0 (every package pair is unchanged)", res.Stats.SemQueries)
	}
	out := &HostingDiffResult{
		Manifest:        bench.Name,
		Workers:         HostingDiffWorkers,
		FullSeconds:     fullTime.Seconds(),
		DiffSeconds:     diffTime.Seconds(),
		FullQueries:     full.Stats.SemQueries,
		DiffQueries:     res.Stats.SemQueries,
		DiffChanged:     res.Stats.DiffChanged,
		DiffUnchanged:   res.Stats.DiffUnchanged,
		PairsReused:     res.Stats.PairsReused,
		PairsReverified: res.Stats.PairsReverified,
		InheritMisses:   res.Stats.InheritMisses,
	}
	if out.DiffSeconds > 0 {
		out.Speedup = out.FullSeconds / out.DiffSeconds
	}
	return out, nil
}

// DiffReport is the BENCH_diff.json trajectory point: the synthetic
// edit-fraction x worker matrix plus the hosting headline, with enough
// host context to interpret the wall clocks.
type DiffReport struct {
	Benchmark      string             `json:"benchmark"`
	Workload       string             `json:"workload"`
	HostCPUs       int                `json:"host_cpus"`
	Synthetic      []DiffRow          `json:"synthetic"`
	Hosting        *HostingDiffResult `json:"hosting"`
	OneEditSpeedup float64            `json:"one_edit_speedup"` // smallest edit, most workers
	HostingSpeedup float64            `json:"hosting_speedup"`
}

// MinHostingDiffSpeedup is the acceptance floor for the headline: a
// one-resource edit of the largest seed manifest must re-verify at
// least this much faster than a full check, both run natively.
const MinHostingDiffSpeedup = 5.0

// BuildDiffReport runs both series of the differential-verification
// experiment and enforces the headline threshold.
func BuildDiffReport(timeout time.Duration) (*DiffReport, error) {
	synthetic, err := DiffSpeedup(timeout, DiffWorkloadSize, DiffEditPercents, DiffWorkers)
	if err != nil {
		return nil, err
	}
	hosting, err := HostingDiffSpeedup(timeout)
	if err != nil {
		return nil, err
	}
	if hosting.Speedup < MinHostingDiffSpeedup {
		return nil, fmt.Errorf("hosting diff: speedup %.2fx below the %.0fx floor for a one-resource edit",
			hosting.Speedup, MinHostingDiffSpeedup)
	}
	rep := &DiffReport{
		Benchmark: "BenchmarkDiffSpeedup",
		Workload: fmt.Sprintf("%d packages with overlapping dependency closures (%d pairwise semantic queries), edited at %v%%, plus a one-resource edit of hosting.pp",
			DiffWorkloadSize, DiffWorkloadSize*(DiffWorkloadSize-1)/2, DiffEditPercents),
		HostCPUs:       runtime.NumCPU(),
		Synthetic:      synthetic,
		Hosting:        hosting,
		OneEditSpeedup: diffSpeedupAt(synthetic, DiffEditPercents[0], DiffWorkers[len(DiffWorkers)-1]),
		HostingSpeedup: hosting.Speedup,
	}
	return rep, nil
}

// Write writes the report as indented JSON to path.
func (r *DiffReport) Write(path string) error { return writeJSON(path, r) }

func diffSpeedupAt(rows []DiffRow, pct, workers int) float64 {
	for _, r := range rows {
		if r.EditPercent == pct && r.Workers == workers {
			return r.Speedup
		}
	}
	return 0
}
