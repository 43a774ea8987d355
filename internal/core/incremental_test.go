package core_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/qcache"
)

// verdict is the comparable outcome of one determinacy check.
type verdict struct {
	deterministic bool
	cex           *core.Counterexample
	eliminated    int
	sequences     int
	err           string
}

func runCheck(t *testing.T, source string, opts core.Options) verdict {
	t.Helper()
	s, err := core.Load(source, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		return verdict{err: err.Error()}
	}
	return verdict{
		deterministic: res.Deterministic,
		cex:           res.Counterexample,
		eliminated:    res.Stats.Eliminated,
		sequences:     res.Stats.Sequences,
	}
}

// TestIncrementalVerdictsMatchFresh is the acceptance gate of the
// incremental backend: on the full example suite, the pooled/incremental
// path must produce verdicts — including counterexamples — identical to the
// fresh-solver path, at 1 and at 8 workers. Every run gets a private query
// cache: with the shared cache, the first run would compute all verdicts
// and the others would merely read them back, making the comparison
// vacuous.
func TestIncrementalVerdictsMatchFresh(t *testing.T) {
	core.ResetSolverPools()
	base := core.DefaultOptions()
	base.SemanticCommute = true
	base.Timeout = time.Minute
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			fresh := base
			fresh.FreshSolvers = true
			fresh.Parallelism = 1
			fresh.SharedQueryCache = qcache.New()
			want := runCheck(t, b.Source, fresh)
			if want.err == "" && want.deterministic != b.Deterministic {
				t.Fatalf("fresh verdict %v disagrees with expected %v",
					want.deterministic, b.Deterministic)
			}
			for _, workers := range []int{1, 8} {
				pooled := base
				pooled.FreshSolvers = false
				pooled.Parallelism = workers
				pooled.SharedQueryCache = qcache.New()
				got := runCheck(t, b.Source, pooled)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: pooled verdict diverges from fresh:\npooled: %+v\nfresh:  %+v",
						workers, got, want)
				}
			}
		})
	}
}

// TestSolverPoolReuse: a check with several semantic queries must actually
// reuse pooled solvers, and re-checking the same manifest must draw on the
// warm pool from the previous check.
func TestSolverPoolReuse(t *testing.T) {
	core.ResetSolverPools()
	opts := core.DefaultOptions()
	opts.SemanticCommute = true
	opts.Parallelism = 1
	opts.Timeout = 2 * time.Minute
	opts.SharedQueryCache = qcache.New()
	// Three packages whose dependency closures all pull in perl: no pair is
	// syntactically commuting, so each of the three pairs costs one semantic
	// query.
	src := `
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
package {'spamassassin': ensure => present }
`
	s, err := core.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("expected deterministic")
	}
	if res.Stats.SemQueries < 2 {
		t.Skipf("only %d semantic queries; cannot observe reuse", res.Stats.SemQueries)
	}
	// With one worker, every query after the first reuses the same solver.
	if res.Stats.SolverReuses != res.Stats.SemQueries-1 {
		t.Errorf("SolverReuses = %d, want %d (queries-1 at 1 worker)",
			res.Stats.SolverReuses, res.Stats.SemQueries-1)
	}
	// A second check of the same manifest starts from a warm pool: its very
	// first query already reuses a solver.
	opts2 := opts
	opts2.SharedQueryCache = qcache.New() // force re-solving, not cache reads
	s2, err := core.Load(src, opts2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SemQueries > 0 && res2.Stats.SolverReuses != res2.Stats.SemQueries {
		t.Errorf("warm pool: SolverReuses = %d, want %d (all queries)",
			res2.Stats.SolverReuses, res2.Stats.SemQueries)
	}
	if res2.Deterministic != res.Deterministic {
		t.Error("warm-pool verdict diverged")
	}
}

// TestFreshSolversReportNoReuse: the baseline path must not touch the pool.
func TestFreshSolversReportNoReuse(t *testing.T) {
	core.ResetSolverPools()
	opts := core.DefaultOptions()
	opts.SemanticCommute = true
	opts.FreshSolvers = true
	opts.Timeout = 2 * time.Minute
	opts.SharedQueryCache = qcache.New()
	s, err := core.Load(`
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
`, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SolverReuses != 0 || res.Stats.LearntRetained != 0 {
		t.Errorf("fresh path reported pool activity: reuses=%d learnt=%d",
			res.Stats.SolverReuses, res.Stats.LearntRetained)
	}
}

// TestEncodeMemoStats: on a manifest whose resources share dependency
// closures, the pooled sessions' encode memo must be visible in the check
// stats, and no disk tier is consulted without a cache directory.
func TestEncodeMemoStats(t *testing.T) {
	core.ResetSolverPools()
	opts := core.DefaultOptions()
	opts.SemanticCommute = true
	opts.Parallelism = 1
	opts.Timeout = 2 * time.Minute
	opts.SharedQueryCache = qcache.New()
	src := `
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
package {'spamassassin': ensure => present }
`
	s, err := core.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SemQueries >= 2 && res.Stats.EncodeMemoHits == 0 {
		t.Errorf("%d semantic queries at 1 worker but no encode-memo hits", res.Stats.SemQueries)
	}
	if res.Stats.DiskCacheHits != 0 {
		t.Errorf("DiskCacheHits = %d without a disk tier", res.Stats.DiskCacheHits)
	}
}
