package sat

import (
	"math/rand"
	"sort"
	"testing"
)

// Search-identity pins. The solver's hot-path data layout (heap position
// array, literal-indexed occurrence lists, level stamps) is free to change
// only as long as the search itself does not: every decision, conflict,
// propagation and restart must stay where it was, or verdict-level
// fingerprints elsewhere (canonical witnesses, report digests, benchmark
// counters) would drift. The golden values below were recorded before the
// data layout moved off Go maps; a layout change that alters any of them
// has changed the search, not just its speed.

// pinInstance is one corpus entry: it builds and runs a solver and
// returns it together with a digest of the verdicts it reached.
type pinInstance struct {
	name string
	run  func() (*Solver, string)
}

// pinGolden is the recorded outcome of one corpus entry.
type pinGolden struct {
	verdicts string
	search   Counters
	simp     SimplifyStats
}

// random3SAT builds a seeded random 3-SAT instance with nvars variables
// and round(ratio*nvars) clauses of three distinct variables each.
func random3SAT(s *Solver, seed int64, nvars int, ratio float64) {
	r := rand.New(rand.NewSource(seed))
	vars := make([]Var, nvars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i < int(ratio*float64(nvars)+0.5); i++ {
		perm := r.Perm(nvars)[:3]
		c := make([]Lit, 3)
		for j, k := range perm {
			c[j] = MkLit(vars[k], r.Intn(2) == 0)
		}
		s.AddClause(c...)
	}
}

// incrementalRun drives one long-lived solver through the lifecycle the
// pooled determinacy sessions use: a random base formula, then a stream
// of queries whose clauses are guarded by fresh activation literals,
// retired with ReleaseVar, with periodic explicit Simplify calls so that
// retired variables are recycled by later NewVar calls.
func incrementalRun() (*Solver, string) {
	r := rand.New(rand.NewSource(7))
	s := New()
	const nvars = 60
	random3SAT(s, 11, nvars, 4.0)
	verdicts := make([]byte, 0, 40)
	for q := 0; q < 40; q++ {
		act := s.NewVar()
		for i := 0; i < 2+r.Intn(6); i++ {
			c := []Lit{NegLit(act)}
			for _, k := range r.Perm(nvars)[:1+r.Intn(3)] {
				c = append(c, MkLit(Var(k+1), r.Intn(2) == 0))
			}
			s.AddClause(c...)
		}
		verdicts = append(verdicts, "?SU"[s.Solve(PosLit(act))])
		s.ReleaseVar(NegLit(act))
		if q%5 == 4 {
			s.Simplify()
		}
	}
	return s, string(verdicts)
}

func pinCorpus() []pinInstance {
	solveWith := func(build func(*Solver)) func() (*Solver, string) {
		return func() (*Solver, string) {
			s := New()
			build(s)
			return s, s.Solve().String()
		}
	}
	return []pinInstance{
		{"3sat-50", solveWith(func(s *Solver) { random3SAT(s, 1, 50, 4.26) })},
		{"3sat-100", solveWith(func(s *Solver) { random3SAT(s, 2, 100, 4.26) })},
		{"3sat-150", solveWith(func(s *Solver) { random3SAT(s, 3, 150, 4.26) })},
		{"php-6", solveWith(func(s *Solver) { loadPHP(s, 6) })},
		{"php-7", solveWith(func(s *Solver) { loadPHP(s, 7) })},
		// A tiny learnt budget makes reduceDB run on every restart, so
		// the deletion ranking and the locked-reason check are pinned too.
		{"php-7-reduce", solveWith(func(s *Solver) { loadPHP(s, 7); s.maxLearnt = 50 })},
		{"incremental", incrementalRun},
	}
}

var pinGoldens = map[string]pinGolden{
	"3sat-50":      {"sat", Counters{Decisions: 56, Propagations: 541, Conflicts: 30, Restarts: 0}, SimplifyStats{}},
	"3sat-100":     {"unsat", Counters{Decisions: 480, Propagations: 9335, Conflicts: 396, Restarts: 5}, SimplifyStats{}},
	"3sat-150":     {"sat", Counters{Decisions: 1023, Propagations: 25102, Conflicts: 744, Restarts: 6}, SimplifyStats{Strengthened: 1, Subsumed: 1}},
	"php-6":        {"unsat", Counters{Decisions: 1178, Propagations: 12470, Conflicts: 963, Restarts: 9}, SimplifyStats{}},
	"php-7":        {"unsat", Counters{Decisions: 5420, Propagations: 56055, Conflicts: 4242, Restarts: 30}, SimplifyStats{}},
	"php-7-reduce": {"unsat", Counters{Decisions: 14010, Propagations: 152071, Conflicts: 11148, Restarts: 62}, SimplifyStats{}},
	"incremental": {"USUSSSSSUUUSUSSSUSSSSSSUSSUSSUSUUUUSUUSS",
		Counters{Decisions: 425, Propagations: 4647, Conflicts: 194, Restarts: 0},
		SimplifyStats{Removed: 260, Strengthened: 33, Subsumed: 3, VarsRecycled: 40}},
}

func TestSearchCountersPinned(t *testing.T) {
	for _, inst := range pinCorpus() {
		s, verdicts := inst.run()
		got := pinGolden{verdicts: verdicts, search: s.Counters(), simp: s.SimplifyCounters()}
		want, ok := pinGoldens[inst.name]
		if !ok {
			t.Errorf("%s: no golden; got %#v", inst.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: search moved\n got %+v\nwant %+v", inst.name, got, want)
		}
	}
}

// TestVarHeapModel drives the VSIDS heap with random pushes, pops and
// activity bumps — including variables pushed out of numbering order and
// re-pushed after being popped, as recycled variables are — and checks
// every pop against a sorted reference of the variables it holds.
func TestVarHeapModel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		var activity []float64
		h := newVarHeap(&activity)
		in := map[Var]bool{}
		maxVar := 0
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4: // push, possibly a var numbered far beyond the rest
				v := Var(1 + r.Intn(maxVar+8))
				for int(v) >= len(activity) {
					activity = append(activity, 0)
				}
				if !in[v] {
					// Activity only changes for vars outside the heap here
					// or through bumps below, matching the solver.
					activity[v] = float64(r.Intn(50))
				}
				if int(v) > maxVar {
					maxVar = int(v)
				}
				h.push(v)
				in[v] = true
			case op < 7: // pop: must be a maximum of the held activities
				ref := make([]Var, 0, len(in))
				for v := range in {
					ref = append(ref, v)
				}
				sort.Slice(ref, func(i, j int) bool { return activity[ref[i]] > activity[ref[j]] })
				v, ok := h.pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("trial %d step %d: pop ok=%v with %d held", trial, step, ok, len(ref))
				}
				if !ok {
					continue
				}
				if !in[v] || activity[v] != activity[ref[0]] {
					t.Fatalf("trial %d step %d: popped x%d (act %v, held %v), want act %v",
						trial, step, v, activity[v], in[v], activity[ref[0]])
				}
				delete(in, v)
			default: // bump a held or absent var
				if maxVar == 0 {
					continue
				}
				v := Var(1 + r.Intn(maxVar))
				if int(v) >= len(activity) {
					continue
				}
				activity[v] += float64(1 + r.Intn(20))
				h.update(v)
			}
			if len(h.heap) != len(in) {
				t.Fatalf("trial %d step %d: heap holds %d, reference %d", trial, step, len(h.heap), len(in))
			}
		}
	}
}
