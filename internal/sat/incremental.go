package sat

// Incremental solving support. Rehearsal's determinacy engine asks
// thousands of structurally related queries, so one Solver may outlive
// many Solve calls:
//
//   - Solve(assumptions...) decides satisfiability under per-call
//     assumption literals without touching the clause database. Callers
//     retire per-query clauses by guarding each batch with an activation
//     literal a (adding ¬a ∨ C), passing a as an assumption while the
//     batch is live, and calling ReleaseVar(¬a) when done.
//   - Learnt clauses survive across Solve calls. Assumptions are enqueued
//     as decisions, so conflict analysis folds their negations into the
//     learnt clauses it records — every learnt clause is implied by the
//     problem clauses alone and stays sound for later queries.
//   - Simplify is the root-level preprocessing pass: level-0 unit
//     propagation, satisfied-clause removal, false-literal strengthening
//     and (self-)subsumption. Solve runs it automatically whenever
//     clauses were added since the last pass.
//   - ClearLearnts drops the learnt-clause database without disturbing
//     the problem clauses, for callers that want a clean slate.

// SimplifyStats counts the work done by the preprocessing passes over the
// solver's lifetime.
type SimplifyStats struct {
	Removed      int64 // clauses deleted because satisfied at the root level
	Strengthened int64 // literals dropped from surviving clauses
	Subsumed     int64 // clauses deleted by (self-)subsumption
	VarsRecycled int64 // released variables scrubbed and handed back to NewVar
}

// SimplifyCounters returns the cumulative preprocessing counters.
func (s *Solver) SimplifyCounters() SimplifyStats { return s.simp }

// LearntClauses returns the number of live learnt clauses.
func (s *Solver) LearntClauses() int { return s.nLearnt }

// ReleaseVar permanently asserts l — typically the negation of an
// activation literal, retiring every clause guarded by it — and marks the
// variable for recycling. Once the next Simplify has scrubbed every
// remaining occurrence, NewVar hands the variable out again.
func (s *Solver) ReleaseVar(l Lit) {
	s.released = append(s.released, l.Var())
	s.AddClause(l)
}

// ClearLearnts removes every learnt clause. The problem clauses, the root
// trail and the variable activities are untouched.
func (s *Solver) ClearLearnts() {
	s.cancelUntil(0)
	// Root assignments stand on their own; drop references to learnt
	// reason clauses before freeing them.
	for _, l := range s.trail {
		s.reason[l.Var()] = nilClause
	}
	for i := range s.clauses {
		if c := &s.clauses[i]; c.learnt && c.lits != nil {
			s.removeClause(clauseRef(i))
		}
	}
	s.nLearnt = 0
}

// Simplify runs the root-level preprocessing pass: unit propagation at
// decision level 0, removal of satisfied clauses, strengthening of clauses
// by dropping root-false literals, a bounded (self-)subsumption pass over
// the problem clauses, and recycling of released variables. Every
// transformation preserves the set of models over the live variables, so
// Solve verdicts are unchanged. Returns false if the formula is
// unsatisfiable.
func (s *Solver) Simplify() bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Root assignments never need their reasons again (conflict analysis
	// skips level-0 literals); clear them so clause removal below cannot
	// leave dangling references.
	for _, l := range s.trail {
		s.reason[l.Var()] = nilClause
	}
	if s.propagate() != nilClause {
		s.unsat = true
		return false
	}
	if !s.removeSatisfiedLoop() {
		s.unsat = true
		return false
	}
	units, ok := s.subsumptionPass()
	if !ok {
		s.unsat = true
		return false
	}
	if s.interrupted() {
		return true // interrupted: stay dirty, Solve reports Unknown
	}
	if units && !s.removeSatisfiedLoop() {
		s.unsat = true
		return false
	}
	if s.interrupted() {
		return true
	}
	s.recycleReleased()
	s.dirty = false
	s.subsumeHead = len(s.clauses)
	return true
}

// removeSatisfiedLoop sweeps the clause database until a fixpoint:
// satisfied clauses are removed, root-false literals are dropped, and
// clauses that become unit are propagated. Returns false on conflict.
// The sweeps poll the stop flag and the deadline every sweepPoll
// clauses; an interrupted sweep leaves every clause it has not reached as
// it was, so the database keeps its models and stays dirty.
func (s *Solver) removeSatisfiedLoop() bool {
	for {
		again, ok := s.removeSatisfiedSweep()
		if !ok {
			return false
		}
		if !again {
			return true
		}
	}
}

func (s *Solver) removeSatisfiedSweep() (again, ok bool) {
	for i := range s.clauses {
		if i%sweepPoll == 0 && s.interrupted() {
			return false, true
		}
		c := &s.clauses[i]
		if c.lits == nil {
			continue
		}
		cref := clauseRef(i)
		satisfied := false
		nFalse := 0
		for _, l := range c.lits {
			switch s.litValue(l) {
			case vTrue:
				satisfied = true
			case vFalse:
				nFalse++
			}
		}
		if satisfied {
			s.removeClause(cref)
			s.simp.Removed++
			continue
		}
		if nFalse == 0 {
			continue
		}
		// Strengthen: drop the root-false literals. Detach first — the
		// watched pair sits at positions 0 and 1 and is about to move.
		s.detach(cref)
		out := c.lits[:0]
		for _, l := range c.lits {
			if s.litValue(l) != vFalse {
				out = append(out, l)
			}
		}
		c.lits = out
		s.simp.Strengthened += int64(nFalse)
		if len(out) == 1 {
			// After a propagation fixpoint a non-satisfied clause keeps at
			// least one non-false literal, so the survivor is unassigned.
			s.enqueue(out[0], nilClause)
			s.freeClause(cref)
			if s.propagate() != nilClause {
				return false, false
			}
			again = true
			continue
		}
		s.attach(cref)
	}
	return again, true
}

// sweepPoll is how many clauses a preprocessing sweep visits between two
// polls of the stop flag and the deadline.
const sweepPoll = 4096

// Bounds keeping the subsumption pass near-linear: clauses longer than
// subsumeMaxLen are never used as subsuming candidates, and occurrence
// lists longer than subsumeMaxOcc are not scanned.
const (
	subsumeMaxLen = 30
	subsumeMaxOcc = 500
)

// subsumptionPass runs bounded forward subsumption and self-subsumption
// over the problem clauses, using the clauses added since the last pass as
// candidates. For candidate C and literal l ∈ C: any clause D ⊇ C is
// removed (subsumption), and any clause D ∋ ¬l with C∖{l} ⊆ D is
// strengthened by dropping ¬l (the resolvent of C and D on l subsumes D).
// Returns whether any strengthening produced new unit clauses, and false
// in ok on conflict.
func (s *Solver) subsumptionPass() (units, ok bool) {
	// Occurrence lists and variable signatures over the problem clauses.
	sigs := make([]uint64, len(s.clauses))
	occ := make([][]clauseRef, len(s.watches)) // indexed by literal
	for i := range s.clauses {
		if i%sweepPoll == 0 && s.interrupted() {
			return false, true
		}
		c := &s.clauses[i]
		if c.lits == nil || c.learnt {
			continue
		}
		var sg uint64
		for _, l := range c.lits {
			sg |= 1 << (uint(l.Var()) % 64)
		}
		sigs[i] = sg
		for _, l := range c.lits {
			occ[l] = append(occ[l], clauseRef(i))
		}
	}
	// inC marks the current candidate's literals. It is cleared after each
	// candidate from a snapshot of the literals it was set from, because
	// root-level propagation may permute the candidate's own slice while
	// its literals are being visited.
	inC := make([]bool, len(s.watches))
	var cLits []Lit
	for i := s.subsumeHead; i < len(s.clauses); i++ {
		if s.stopRequested() || i%64 == 0 && s.pastDeadline() {
			// Every step so far preserved the models; the caller leaves the
			// database dirty so the next Solve finishes the pass.
			return units, true
		}
		c := &s.clauses[i]
		if c.lits == nil || c.learnt || len(c.lits) > subsumeMaxLen {
			continue
		}
		cref := clauseRef(i)
		cLits = append(cLits[:0], c.lits...)
		for _, l := range cLits {
			inC[l] = true
		}
		for _, l := range c.lits {
			if len(c.lits) == 0 { // c was strengthened away meanwhile
				break
			}
			// Subsumption: remove any D ⊇ C among the clauses containing l.
			if cands := occ[l]; len(cands) <= subsumeMaxOcc {
				for _, d := range cands {
					dc := &s.clauses[d]
					if d == cref || dc.lits == nil || dc.learnt ||
						len(dc.lits) < len(c.lits) || sigs[cref]&^sigs[d] != 0 {
						continue
					}
					hits := 0
					for _, dl := range dc.lits {
						if inC[dl] {
							hits++
						}
					}
					if hits == len(c.lits) {
						s.removeClause(d)
						s.simp.Subsumed++
					}
				}
			}
			// Self-subsumption: strengthen any D ∋ ¬l with C∖{l} ⊆ D.
			if cands := occ[l.Neg()]; len(cands) <= subsumeMaxOcc {
				for _, d := range cands {
					dc := &s.clauses[d]
					if d == cref || dc.lits == nil || dc.learnt ||
						len(dc.lits) < len(c.lits) {
						continue
					}
					hasNeg := false
					hits := 0
					for _, dl := range dc.lits {
						if dl == l.Neg() {
							hasNeg = true
						} else if inC[dl] {
							hits++
						}
					}
					if !hasNeg || hits < len(c.lits)-1 {
						continue
					}
					u, o := s.strengthenClause(d, l.Neg())
					if !o {
						return units, false
					}
					units = units || u
				}
			}
		}
		for _, l := range cLits {
			inC[l] = false
		}
	}
	return units, true
}

// strengthenClause removes drop from the clause, re-propagating if it
// becomes unit and discarding it if it becomes satisfied along the way.
// Returns whether a unit was enqueued, and false in ok on conflict.
func (s *Solver) strengthenClause(cref clauseRef, drop Lit) (unit, ok bool) {
	c := &s.clauses[cref]
	s.detach(cref)
	out := c.lits[:0]
	satisfied := false
	for _, l := range c.lits {
		if l == drop {
			continue
		}
		switch s.litValue(l) {
		case vTrue:
			satisfied = true
		case vFalse:
			// drop root-false literals too
		default:
			out = append(out, l)
		}
	}
	c.lits = out
	s.simp.Strengthened++
	if satisfied {
		s.freeClause(cref)
		s.simp.Removed++
		return false, true
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false, false
	case 1:
		s.enqueue(out[0], nilClause)
		s.freeClause(cref)
		if s.propagate() != nilClause {
			return true, false
		}
		return true, true
	}
	s.attach(cref)
	return false, true
}

// removeClause detaches and frees a clause.
func (s *Solver) removeClause(cref clauseRef) {
	s.detach(cref)
	s.freeClause(cref)
}

// freeClause clears the slot and recycles it for future learnt clauses.
// The caller must have detached the clause already.
func (s *Solver) freeClause(cref clauseRef) {
	if s.clauses[cref].learnt {
		s.nLearnt--
	}
	s.clauses[cref] = clause{}
	s.free = append(s.free, cref)
}

// recycleReleased scrubs released variables whose occurrences the
// preprocessing passes have eliminated: their root assignment is undone
// (it constrains nothing once no clause mentions the variable) and the
// variable becomes available to NewVar. Released variables still watched
// by some clause stay parked until a later pass. Processing follows the
// release order so variable reuse — and with it the search — stays
// deterministic.
func (s *Solver) recycleReleased() {
	if len(s.released) == 0 {
		return
	}
	keep := s.released[:0]
	var cleared []Var
	for _, v := range s.released {
		if len(s.watches[PosLit(v)]) != 0 || len(s.watches[NegLit(v)]) != 0 || s.assigns[v] == vUnknown {
			keep = append(keep, v)
			continue
		}
		cleared = append(cleared, v)
	}
	s.released = keep
	if len(cleared) == 0 {
		return
	}
	// Mark the cleared variables in seen, which is all false outside
	// conflict analysis, to filter them off the trail.
	for _, v := range cleared {
		s.seen[v] = true
	}
	out := s.trail[:0]
	for _, l := range s.trail {
		if !s.seen[l.Var()] {
			out = append(out, l)
		}
	}
	s.trail = out
	s.qhead = len(s.trail)
	for _, v := range cleared {
		s.seen[v] = false
		s.assigns[v] = vUnknown
		s.phase[v] = false
		s.level[v] = 0
		s.reason[v] = nilClause
		s.activity[v] = 0
		s.recycled = append(s.recycled, v)
		s.simp.VarsRecycled++
	}
}
