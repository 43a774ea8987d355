package sat

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// loadPHP loads the pigeonhole principle PHP(holes+1, holes) into s.
func loadPHP(s *Solver, holes int) {
	pigeons := holes + 1
	at := make([][]Var, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]Var, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(at[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
}

// Configs steer search, never the verdict: every diverse config must
// prove the same UNSAT instance and solve the same SAT instance (with a
// model that satisfies the clauses — models may differ, verdicts not).
func TestConfigVerdictIndependence(t *testing.T) {
	for _, cfg := range PortfolioConfigs(8) {
		s := NewWithConfig(cfg)
		loadPHP(s, 5)
		if got := s.Solve(); got != Unsat {
			t.Errorf("config %s: PHP(6,5) = %v, want unsat", cfg.Name, got)
		}

		s = NewWithConfig(cfg)
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		clauses := [][]Lit{
			{PosLit(a), PosLit(b)},
			{NegLit(a), PosLit(c)},
			{NegLit(b), NegLit(c), PosLit(a)},
		}
		for _, cl := range clauses {
			s.AddClause(cl...)
		}
		if got := s.Solve(); got != Sat {
			t.Fatalf("config %s: satisfiable instance = %v, want sat", cfg.Name, got)
		}
		for i, cl := range clauses {
			ok := false
			for _, l := range cl {
				if s.Value(l.Var()) == l.IsPos() {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("config %s: model violates clause %d", cfg.Name, i)
			}
		}
	}
}

// The diverse config space is deterministic and well-formed: stable
// across calls, default-first, unique names, and every knob normalized.
func TestPortfolioConfigsShape(t *testing.T) {
	a, b := PortfolioConfigs(8), PortfolioConfigs(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PortfolioConfigs is not deterministic")
	}
	if a[0].Name != "default" || !reflect.DeepEqual(a[0], DefaultConfig()) {
		t.Errorf("index 0 must be the default config, got %+v", a[0])
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.Name] {
			t.Errorf("duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
		if c.VarDecay == 0 || c.ClauseDecay == 0 || c.RestartBase == 0 ||
			c.RestartGrowth == 0 || c.Seed == 0 || c.MaxLearntBase == 0 || c.MaxLearntGrowthPct == 0 {
			t.Errorf("config %q not fully normalized: %+v", c.Name, c)
		}
	}
	if got := len(PortfolioConfigs(0)); got != 1 {
		t.Errorf("PortfolioConfigs(0) = %d configs, want 1", got)
	}
}

// The zero Config must reproduce the historical defaults bit for bit.
func TestZeroConfigIsDefault(t *testing.T) {
	d := DefaultConfig()
	if d.VarDecay != 0.95 || d.ClauseDecay != 0.999 || d.RestartBase != 64 ||
		d.Restart != RestartLuby || d.Phase != PhaseSaved || d.RandomFreq != 0 ||
		d.MaxLearntBase != 4000 || d.MaxLearntGrowthPct != 10 {
		t.Errorf("default config drifted: %+v", d)
	}
}

// A pre-set stop flag must abort the search as Unknown without consuming
// the instance; clearing it must let the same solver finish.
func TestStopFlag(t *testing.T) {
	s := New()
	loadPHP(s, 7)
	var stop atomic.Bool
	stop.Store(true)
	s.SetStop(&stop)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with stop set = %v, want unknown", got)
	}
	if !s.dirty {
		t.Error("preprocessing interrupted by the stop flag left the database marked clean")
	}
	stop.Store(false)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve after clearing stop = %v, want unsat", got)
	}
	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve with stop detached = %v, want unsat", got)
	}
}
