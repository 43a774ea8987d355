package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// parallelWorkload builds a manifest of n packages whose dependency
// closures all overlap (every svc package depends on libcommon), so every
// pair fails the syntactic commutativity check and needs one semantic
// solver query.
func parallelWorkload(n int) (string, pkgdb.Provider) {
	catalog := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libcommon", Version: "1.0"}
	for i := 0; i < 4; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libcommon/lib%03d", i))
	}
	catalog.Add("ubuntu", lib)
	manifest := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("svc-%d", i)
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"libcommon"}}
		p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/lib000", name))
		catalog.Add("ubuntu", p)
		manifest += fmt.Sprintf("package {'%s': ensure => present }\n", name)
	}
	return manifest, catalog
}

func checkWorkload(t *testing.T, manifest string, provider pkgdb.Provider, workers int, cache *qcache.Cache) *DeterminismResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Provider = provider
	opts.SemanticCommute = true
	opts.Parallelism = workers
	opts.SharedQueryCache = cache
	opts.Timeout = 2 * time.Minute
	s, err := Load(manifest, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 17} {
		for _, n := range []int{0, 1, 5, 64} {
			hits := make([]atomicFlag, n)
			runParallel(context.Background(), workers, n, func(i int) { hits[i].set(t) })
			for i := range hits {
				if !hits[i].hit {
					t.Errorf("workers=%d n=%d: index %d never ran", workers, n, i)
				}
			}
		}
	}
}

type atomicFlag struct {
	mu  sync.Mutex
	hit bool
}

func (f *atomicFlag) set(t *testing.T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hit {
		t.Error("index ran twice")
	}
	f.hit = true
}

// The analysis must return identical verdicts — counterexample included —
// at any worker count: prefetching is a pure cache warm-up and the
// authoritative analysis order is unchanged.
func TestParallelVerdictsIdentical(t *testing.T) {
	manifest, provider := parallelWorkload(4)
	seq := checkWorkload(t, manifest, provider, 1, qcache.New())
	par := checkWorkload(t, manifest, provider, 8, qcache.New())

	if seq.Deterministic != par.Deterministic {
		t.Fatalf("verdict differs: seq=%v par=%v", seq.Deterministic, par.Deterministic)
	}
	if !reflect.DeepEqual(seq.Counterexample, par.Counterexample) {
		t.Errorf("counterexamples differ:\nseq: %+v\npar: %+v", seq.Counterexample, par.Counterexample)
	}
	if seq.Stats.Eliminated != par.Stats.Eliminated ||
		seq.Stats.Sequences != par.Stats.Sequences ||
		seq.Stats.Paths != par.Stats.Paths ||
		seq.Stats.Resources != par.Stats.Resources {
		t.Errorf("stats differ:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
	}
	if seq.Stats.Workers != 1 || par.Stats.Workers != 8 {
		t.Errorf("workers stat: seq=%d par=%d", seq.Stats.Workers, par.Stats.Workers)
	}
	if !seq.Deterministic {
		t.Error("overlapping-closure workload should be deterministic")
	}
}

// A genuinely conflicting manifest must stay non-deterministic with the
// same counterexample at any worker count.
func TestParallelConflictVerdictsIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.SemanticCommute = true
	opts.Timeout = 2 * time.Minute
	var results []*DeterminismResult
	for _, workers := range []int{1, 8} {
		o := opts
		o.Parallelism = workers
		o.SharedQueryCache = qcache.New()
		s, err := Load(fig3c, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckDeterminism()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deterministic {
			t.Fatalf("fig 3c must be non-deterministic at %d workers", workers)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0].Counterexample, results[1].Counterexample) {
		t.Errorf("counterexamples differ across worker counts:\nseq: %+v\npar: %+v",
			results[0].Counterexample, results[1].Counterexample)
	}
}

// A second check of the same manifest through the same shared cache must
// answer every semantic decision from the cache without re-running the
// solver.
func TestSharedCacheWarmSecondCheck(t *testing.T) {
	manifest, provider := parallelWorkload(4)
	cache := qcache.New()

	cold := checkWorkload(t, manifest, provider, 4, cache)
	if cold.Stats.SemQueries == 0 {
		t.Fatal("cold check ran no solver queries; workload is not semantic-commute-heavy")
	}

	warm := checkWorkload(t, manifest, provider, 4, cache)
	if warm.Stats.SemQueries != 0 {
		t.Errorf("warm check re-ran %d solver queries", warm.Stats.SemQueries)
	}
	if warm.Stats.SemCacheHits == 0 {
		t.Error("warm check recorded no cache hits")
	}
	if rate := warm.Stats.SemCacheHitRate(); rate != 1 {
		t.Errorf("warm hit rate = %v, want 1", rate)
	}
	if cold.Deterministic != warm.Deterministic ||
		cold.Stats.Eliminated != warm.Stats.Eliminated ||
		cold.Stats.Sequences != warm.Stats.Sequences {
		t.Errorf("cache warm-up changed the result:\ncold: %+v\nwarm: %+v", cold.Stats, warm.Stats)
	}
}

// Many checks sharing one cache concurrently; designed to run under -race.
func TestConcurrentChecksStress(t *testing.T) {
	manifest, provider := parallelWorkload(3)
	cache := qcache.New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Provider = provider
			opts.SemanticCommute = true
			opts.Parallelism = workers
			opts.SharedQueryCache = cache
			opts.Timeout = 2 * time.Minute
			s, err := Load(manifest, opts)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := s.CheckDeterminism()
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Deterministic {
				t.Error("workload must be deterministic")
			}
		}(1 + g%4)
	}
	wg.Wait()
}

// The solver search counters in Stats must include the semantic-
// commutativity queries the workers ran, on the pooled and on the
// FreshSolvers path, at 1 and at 8 workers. Every pair of this workload
// commutes, so no determinacy disjunction is ever solved: any search
// counted comes from the worker queries. Fresh queries are isolated and
// deterministic, so their totals cannot depend on the worker count.
func TestSolverCountersIncludeWorkerQueries(t *testing.T) {
	manifest, provider := parallelWorkload(4)
	for _, fresh := range []bool{false, true} {
		var prev *Stats
		for _, workers := range []int{1, 8} {
			ResetSolverPools()
			opts := DefaultOptions()
			opts.Provider = provider
			opts.SemanticCommute = true
			opts.FreshSolvers = fresh
			opts.Parallelism = workers
			opts.SharedQueryCache = qcache.New()
			opts.Timeout = 2 * time.Minute
			s, err := Load(manifest, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.CheckDeterminism()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if !res.Deterministic || st.SemQueries == 0 {
				t.Fatalf("fresh=%v workers=%d: want a deterministic verdict from semantic queries, got deterministic=%v queries=%d",
					fresh, workers, res.Deterministic, st.SemQueries)
			}
			if st.SolverDecisions == 0 || st.SolverPropagations == 0 {
				t.Errorf("fresh=%v workers=%d: solver search counters miss the worker queries: decisions=%d propagations=%d over %d queries",
					fresh, workers, st.SolverDecisions, st.SolverPropagations, st.SemQueries)
			}
			if fresh && prev != nil && (st.SolverDecisions != prev.SolverDecisions || st.SolverPropagations != prev.SolverPropagations) {
				t.Errorf("fresh solvers: counters differ between 1 and 8 workers: decisions %d vs %d, propagations %d vs %d",
					prev.SolverDecisions, st.SolverDecisions, prev.SolverPropagations, st.SolverPropagations)
			}
			prev = &st
		}
	}
}
