package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// pinnedFleetSequences are the Stats.Sequences of Fleet(400, fault, 1) for
// the faults none, local-dep and pkg-config under each configuration of
// TestVerdictStableAcrossConfigurations; -1 marks a check that exceeds
// fleetPinCap linearizations. Barriers must not change any of them, with
// commutativity off too.
var pinnedFleetSequences = map[string][3]int{
	"commute=true/elim=true/prune=true":    {1, 3, 2},
	"commute=true/elim=true/prune=false":   {1, 3, 2},
	"commute=true/elim=false/prune=true":   {1, 3, 2},
	"commute=true/elim=false/prune=false":  {1, 3, 2},
	"commute=false/elim=true/prune=true":   {1, -1, 720},
	"commute=false/elim=true/prune=false":  {1, -1, 720},
	"commute=false/elim=false/prune=true":  {-1, -1, -1},
	"commute=false/elim=false/prune=false": {-1, -1, -1},
	"no-sleep-sets":                        {1, 3, 2},
}

// fleetPinCap is the MaxSequences of the pinned checks: above every
// decided count, far below the default, so the checks that enumerate
// without end stop early.
const fleetPinCap = 1000

func TestFleetSequencesPinned(t *testing.T) {
	configs := map[string]core.Options{}
	for _, commut := range []bool{true, false} {
		for _, elim := range []bool{true, false} {
			for _, prune := range []bool{true, false} {
				o := core.DefaultOptions()
				o.Commutativity = commut
				o.Elimination = elim
				o.Pruning = prune
				configs[fmt.Sprintf("commute=%v/elim=%v/prune=%v", commut, elim, prune)] = o
			}
		}
	}
	noSleep := core.DefaultOptions()
	noSleep.DisableSleepSets = true
	configs["no-sleep-sets"] = noSleep
	if len(configs) != len(pinnedFleetSequences) {
		t.Fatalf("%d configurations, %d pins", len(configs), len(pinnedFleetSequences))
	}
	if raceEnabled {
		// Enumeration is sequential, and the race detector slows these
		// checks about sevenfold; the plain run covers every configuration.
		configs = map[string]core.Options{"commute=true/elim=true/prune=true": core.DefaultOptions()}
	}
	for name, o := range configs {
		o.Timeout = time.Minute
		o.MaxSequences = fleetPinCap
		want := pinnedFleetSequences[name]
		for f := benchmarks.FleetNone; f <= benchmarks.FleetPkgConfig; f++ {
			what := fmt.Sprintf("%s/%s", name, f)
			sys, err := core.Load(benchmarks.Fleet(400, f, 1), o)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			res, err := sys.CheckDeterminism()
			if want[f] < 0 {
				if !errors.Is(err, core.ErrTimeout) {
					t.Errorf("%s: err = %v, want ErrTimeout past %d linearizations", what, err, fleetPinCap)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", what, err)
				continue
			}
			if res.Deterministic != f.Deterministic() {
				t.Errorf("%s: deterministic = %v, want %v", what, res.Deterministic, f.Deterministic())
			}
			if res.Stats.Sequences != want[f] {
				t.Errorf("%s: %d sequences, want %d", what, res.Stats.Sequences, want[f])
			}
		}
	}
}
