package core_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// TestWarmDiskCache: a second check suite pointed at the same cache
// directory must answer every semantic query from disk — zero solver
// queries — with verdicts identical to the cold run.
func TestWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	base := core.DefaultOptions()
	base.SemanticCommute = true
	base.Timeout = time.Minute

	type outcome struct {
		v       verdict
		queries int
		disk    int
	}
	run := func(t *testing.T, source string) outcome {
		t.Helper()
		// A fresh substrate over the same directory: a cold memory tier
		// in front of the warm disk tier, as in a new process.
		sub, err := core.NewSubstrate(core.SubstrateConfig{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Load(source, sub.Bind(base))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckDeterminism()
		if err != nil {
			return outcome{v: verdict{err: err.Error()}}
		}
		return outcome{
			v: verdict{
				deterministic: res.Deterministic,
				cex:           res.Counterexample,
				eliminated:    res.Stats.Eliminated,
				sequences:     res.Stats.Sequences,
			},
			queries: res.Stats.SemQueries,
			disk:    res.Stats.DiskCacheHits,
		}
	}

	semQueries := 0
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			core.ResetSolverPools()
			cold := run(t, b.Source)
			semQueries += cold.queries
			core.ResetSolverPools() // a warm pool would mask missing disk hits
			warm := run(t, b.Source)
			if !reflect.DeepEqual(warm.v, cold.v) {
				t.Errorf("warm verdict diverges from cold:\nwarm: %+v\ncold: %+v", warm.v, cold.v)
			}
			if warm.queries != 0 {
				t.Errorf("warm run executed %d solver queries; want 0", warm.queries)
			}
			if cold.queries > 0 && warm.disk == 0 {
				t.Errorf("cold run solved %d queries but warm run had no disk hits", cold.queries)
			}
		})
	}
	if semQueries == 0 {
		t.Error("suite produced no semantic queries; disk tier never exercised")
	}
}
