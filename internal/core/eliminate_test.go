package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// TestEliminationMatchesRoundOracle pins the worklist elimination to the
// round-based algorithm it replaced: the same removal order (replay
// depends on it), the same residual graph, and the same semantic queries
// and cache hits, at one worker and with the eight-worker prefetch.
func TestEliminationMatchesRoundOracle(t *testing.T) {
	type config struct {
		semantic bool
		workers  int
	}
	all := []config{{false, 1}, {false, 8}, {true, 1}, {true, 8}}
	// Without semantic commutativity the worker count does not reach
	// elimination (it only sizes the semantic prefetch), so fleets run one
	// syntactic and one prefetching configuration; the largest only the
	// syntactic one, since the oracle's per-round pair list makes its
	// prefetching run cost seconds.
	fleet := []config{{false, 1}, {true, 8}}
	type input struct {
		name, src string
		configs   []config
	}
	var inputs []input
	for _, b := range append(benchmarks.All(), benchmarks.Fixed()...) {
		inputs = append(inputs, input{b.Name, b.Source, all})
	}
	sizes := []int{400, 1200, 2400}
	if raceEnabled {
		// The race detector slows the oracle's quadratic rounds about
		// tenfold; the larger fleets run the same code paths and are
		// checked by the plain run.
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for f := benchmarks.FleetNone; f <= benchmarks.FleetPkgConfig; f++ {
			configs := fleet
			if n == 2400 {
				configs = fleet[:1]
			}
			inputs = append(inputs, input{fmt.Sprintf("fleet-%d-%s", n, f), benchmarks.Fleet(n, f, int64(n)), configs})
		}
	}
	if want := 19 + 3*len(sizes); len(inputs) != want {
		t.Fatalf("%d inputs, want the 19 suite manifests and %d fleets", len(inputs), want-19)
	}
	for _, in := range inputs {
		for _, c := range in.configs {
			t.Run(fmt.Sprintf("%s/semantic=%v/workers=%d", in.name, c.semantic, c.workers), func(t *testing.T) {
				opts := core.DefaultOptions()
				opts.SemanticCommute = c.semantic
				opts.Parallelism = c.workers
				sys, err := core.Load(in.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.RunElimination(sys, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.RunElimination(sys, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Errorf("removal order differs:\n got %v\nwant %v", got.Order, want.Order)
				}
				if !reflect.DeepEqual(got.Residual, want.Residual) || !reflect.DeepEqual(got.Edges, want.Edges) {
					t.Errorf("residual graph differs:\n got %v %v\nwant %v %v", got.Residual, got.Edges, want.Residual, want.Edges)
				}
				if got.SemQueries != want.SemQueries || got.SemCacheHits != want.SemCacheHits {
					t.Errorf("semantic work differs: got %d queries %d hits, want %d queries %d hits",
						got.SemQueries, got.SemCacheHits, want.SemQueries, want.SemCacheHits)
				}
				if len(got.Order)+len(got.Residual) != sys.Size() {
					t.Errorf("%d removed + %d residual != %d resources", len(got.Order), len(got.Residual), sys.Size())
				}
			})
		}
	}
}
