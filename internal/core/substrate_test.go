package core_test

// Differential tests of the shared substrate: verdicts produced by many
// goroutines through one warm Substrate must be identical to fresh
// single-shot runs — the contract that lets rehearsald share solver pools
// and the verdict cache across concurrent jobs. Run with
// -race; the scheduler in internal/service leans entirely on this.

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/qcache"
)

// runVerdict is a goroutine-safe variant of runCheck: it returns the load
// error instead of calling t.Fatal.
func runVerdict(source string, opts core.Options) (verdict, error) {
	s, err := core.Load(source, opts)
	if err != nil {
		return verdict{}, err
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		return verdict{err: err.Error()}, nil
	}
	return verdict{
		deterministic: res.Deterministic,
		cex:           res.Counterexample,
		eliminated:    res.Stats.Eliminated,
		sequences:     res.Stats.Sequences,
	}, nil
}

// TestSubstrateConcurrentMatchesFresh: for every example manifest, N
// goroutines checking through one shared warm substrate — where later
// goroutines are answered largely by caches the earlier ones populated —
// must all produce the verdict a fresh, isolated, single-worker run
// produces, at per-check parallelism 1 and 8.
func TestSubstrateConcurrentMatchesFresh(t *testing.T) {
	core.ResetSolverPools()
	base := core.DefaultOptions()
	base.SemanticCommute = true
	base.Timeout = time.Minute
	const goroutines = 4

	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			fresh := base
			fresh.FreshSolvers = true
			fresh.Parallelism = 1
			fresh.SharedQueryCache = qcache.New()
			want, err := runVerdict(b.Source, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if want.err == "" && want.deterministic != b.Deterministic {
				t.Fatalf("fresh verdict %v disagrees with expected %v",
					want.deterministic, b.Deterministic)
			}
			for _, workers := range []int{1, 8} {
				sub, err := core.NewSubstrate(core.SubstrateConfig{})
				if err != nil {
					t.Fatal(err)
				}
				got := make([]verdict, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for i := 0; i < goroutines; i++ {
					i := i
					wg.Add(1)
					go func() {
						defer wg.Done()
						opts := sub.Bind(base)
						opts.Parallelism = workers
						got[i], errs[i] = runVerdict(b.Source, opts)
					}()
				}
				wg.Wait()
				for i := 0; i < goroutines; i++ {
					if errs[i] != nil {
						t.Fatalf("workers=%d goroutine=%d: %v", workers, i, errs[i])
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("workers=%d goroutine=%d: substrate verdict diverges from fresh:\nshared: %+v\nfresh:  %+v",
							workers, i, got[i], want)
					}
				}
			}
		})
	}
}

// TestSubstrateDiskTierWarmRestart: a substrate with a cache directory
// persists verdicts; a second substrate over the same directory (a daemon
// restart) answers semantic queries from disk and agrees with the first.
func TestSubstrateDiskTierWarmRestart(t *testing.T) {
	core.ResetSolverPools()
	dir := filepath.Join(t.TempDir(), "qcache")
	opts := core.DefaultOptions()
	opts.SemanticCommute = true
	opts.Timeout = time.Minute
	src := `
package {'make': ensure => present }
package {'gcc': ensure => present }
`

	sub1, err := core.NewSubstrate(core.SubstrateConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runVerdict(src, sub1.Bind(opts))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sub1.DiskStats(); !ok {
		t.Fatal("substrate with CacheDir should have a disk tier")
	}

	sub2, err := core.NewSubstrate(core.SubstrateConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Load(src, sub2.Bind(opts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	got := verdict{
		deterministic: res.Deterministic,
		cex:           res.Counterexample,
		eliminated:    res.Stats.Eliminated,
		sequences:     res.Stats.Sequences,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restart verdict diverges:\nwarm: %+v\ncold: %+v", got, want)
	}
	if res.Stats.DiskCacheHits == 0 {
		t.Error("restarted substrate should answer semantic queries from the disk tier")
	}
}

// TestSubstrateBindPreservesKnobs: Bind must overlay only the shared state.
func TestSubstrateBindPreservesKnobs(t *testing.T) {
	sub, err := core.NewSubstrate(core.SubstrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Platform = "centos"
	opts.Parallelism = 7
	opts.Timeout = 42 * time.Second
	bound := sub.Bind(opts)
	if bound.Platform != "centos" || bound.Parallelism != 7 || bound.Timeout != 42*time.Second {
		t.Errorf("Bind clobbered per-job knobs: %+v", bound)
	}
	if bound.SharedQueryCache == nil {
		t.Error("Bind must attach the shared query cache")
	}
	if !sub.ProviderHealthy() {
		t.Error("a substrate without a client provider is always healthy")
	}
}
