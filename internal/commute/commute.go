// Package commute implements the fast syntactic commutativity check of
// section 4.3 (figure 9b): an abstract interpretation mapping each path to
// one of ⊥ (untouched), R (read), D (idempotent directory creation) or W
// (written), plus a record of directories whose child-set is observed
// (emptydir? and rm observe children that may not appear in the program
// text).
//
// The D value is the paper's key insight: packages routinely create shared
// directories like /usr/bin with the guarded idiom
//
//	if (¬dir?(p)) mkdir(p)
//
// which a conventional read/write-set check would flag as conflicting
// (false sharing), forcing the determinacy checker to explore factorially
// many orders. Two D effects on the same path commute.
package commute

import "repro/internal/fs"

// Effect is the abstract value of a path.
type Effect uint8

// The abstract lattice: Bot ⊏ Read, EnsureDir ⊏ Write.
const (
	Bot       Effect = iota // not touched
	Read                    // observed only
	EnsureDir               // idempotent directory creation (D)
	Write                   // written (or mixed read/ensure/write)
)

func (e Effect) String() string {
	switch e {
	case Bot:
		return "⊥"
	case Read:
		return "R"
	case EnsureDir:
		return "D"
	default:
		return "W"
	}
}

// lub is the least upper bound in the ⊥ ⊏ R,D ⊏ W lattice.
func lub(a, b Effect) Effect {
	if a == b {
		return a
	}
	if a == Bot {
		return b
	}
	if b == Bot {
		return a
	}
	return Write // R ⊔ D = W, and anything with W is W
}

// Summary is the abstract effect of an expression. A Summary is immutable
// after Analyze returns, so any number of goroutines may query it
// concurrently — the parallel determinacy engine's pool workers call
// Commute on shared summaries without synchronization.
type Summary struct {
	paths map[fs.Path]Effect
	// childObs holds directories whose set of children the expression
	// observes: emptydir?(d) and rm(d) succeed or fail depending on
	// children of d, including children the program never names.
	childObs fs.PathSet
}

// Effect returns the abstract value of p.
func (s *Summary) Effect(p fs.Path) Effect { return s.paths[p] }

// Paths returns the set of paths with a non-⊥ effect.
func (s *Summary) Paths() fs.PathSet {
	out := make(fs.PathSet, len(s.paths))
	for p, e := range s.paths {
		if e != Bot {
			out.Add(p)
		}
	}
	return out
}

// ObservesChildrenOf reports whether the expression's behavior depends on
// the presence of children of d.
func (s *Summary) ObservesChildrenOf(d fs.Path) bool { return s.childObs.Has(d) }

// ChildObserved returns the set of directories whose child-sets are
// observed.
func (s *Summary) ChildObserved() fs.PathSet { return s.childObs.Clone() }

// Touches reports whether the expression reads, writes or ensures p, or
// observes the child-set of p's parent (which observes p's presence).
func (s *Summary) Touches(p fs.Path) bool {
	if s.paths[p] != Bot {
		return true
	}
	return s.childObs.Has(p.Parent())
}

// Analyze computes the abstract effect summary of e ([e]C ⊥ in figure 9b).
func Analyze(e fs.Expr) *Summary {
	a := &analyzer{
		sum:  &Summary{paths: make(map[fs.Path]Effect), childObs: make(fs.PathSet)},
		defD: make(fs.PathSet),
	}
	a.expr(e)
	return a.sum
}

// analyzer threads the accumulated effect summary together with the set of
// paths that are *definitely* ensured to be directories on every control
// path so far. Only definitely-ensured parents may enable the D effect on
// their children: a D that holds on just one branch of a conditional must
// not license child directory creation after the join (the figure-9b rule
// that trees are created root-first, made join-aware).
type analyzer struct {
	sum  *Summary
	defD fs.PathSet
}

func (a *analyzer) read(p fs.Path) {
	if p.IsRoot() {
		return
	}
	// A read of a path this expression has definitely ensured to be a
	// directory observes the ensured state, not the initial one, so it
	// does not constrain commutativity. This keeps the package idiom
	// (ensure /usr/bin, then creat files inside it) at effect D.
	if a.defD.Has(p) {
		return
	}
	a.sum.paths[p] = lub(a.sum.paths[p], Read)
}

func (a *analyzer) write(p fs.Path) {
	if p.IsRoot() {
		return
	}
	a.sum.paths[p] = lub(a.sum.paths[p], Write)
	delete(a.defD, p)
}

func (a *analyzer) ensureDir(p fs.Path) {
	parent := p.Parent()
	parentOK := parent.IsRoot() || a.defD.Has(parent)
	cur := a.sum.paths[p]
	if parentOK && (cur == Bot || cur == EnsureDir) {
		a.sum.paths[p] = EnsureDir
		a.defD.Add(p)
		return
	}
	// Degraded case: the inner mkdir still observes the parent.
	a.read(p.Parent())
	a.write(p)
}

func (a *analyzer) pred(pr fs.Pred) {
	switch pr := pr.(type) {
	case fs.Not:
		a.pred(pr.P)
	case fs.And:
		a.pred(pr.L)
		a.pred(pr.R)
	case fs.Or:
		a.pred(pr.L)
		a.pred(pr.R)
	case fs.IsFile:
		a.read(pr.Path)
	case fs.IsDir:
		a.read(pr.Path)
	case fs.IsNone:
		a.read(pr.Path)
	case fs.IsEmptyDir:
		a.read(pr.Path)
		a.sum.childObs.Add(pr.Path)
	}
}

func (a *analyzer) expr(e fs.Expr) {
	// Recognize the idempotent directory-creation idioms first.
	if p, ok := GuardedMkdirPath(e); ok {
		a.ensureDir(p)
		return
	}
	switch e := e.(type) {
	case fs.Id, fs.Err:
		// no effect
	case fs.Mkdir:
		a.read(e.Path.Parent())
		a.write(e.Path)
	case fs.Creat:
		a.read(e.Path.Parent())
		a.write(e.Path)
	case fs.Rm:
		a.write(e.Path)
		a.sum.childObs.Add(e.Path)
	case fs.Cp:
		a.read(e.Src)
		a.read(e.Dst.Parent())
		a.write(e.Dst)
	case fs.Seq:
		a.expr(e.E1)
		a.expr(e.E2)
	case fs.If:
		a.pred(e.A)
		// Effects accumulate as an upper bound of the branch join; the
		// definitely-ensured set becomes the intersection of the branches.
		thenDefD := a.defD.Clone()
		elseDefD := a.defD
		a.defD = thenDefD
		a.expr(e.Then)
		thenDefD = a.defD
		a.defD = elseDefD
		a.expr(e.Else)
		joined := make(fs.PathSet)
		for p := range thenDefD {
			if a.defD.Has(p) {
				joined.Add(p)
			}
		}
		a.defD = joined
	default:
		panic("commute: unknown expression")
	}
}

// GuardedMkdirPath recognizes the guarded directory-creation idioms of
// section 4.3:
//
//	if (¬dir?(p)) mkdir(p) else id
//	if (dir?(p)) id else mkdir(p)
//	if (none?(p)) mkdir(p) else if (file?(p)) err else id
func GuardedMkdirPath(e fs.Expr) (fs.Path, bool) {
	iff, ok := e.(fs.If)
	if !ok {
		return "", false
	}
	isId := func(x fs.Expr) bool { _, ok := x.(fs.Id); return ok }
	isErr := func(x fs.Expr) bool { _, ok := x.(fs.Err); return ok }
	mkdirOf := func(x fs.Expr) (fs.Path, bool) {
		m, ok := x.(fs.Mkdir)
		if !ok {
			return "", false
		}
		return m.Path, true
	}

	// if (¬dir?(p)) mkdir(p) else id
	if n, ok := iff.A.(fs.Not); ok {
		if d, ok := n.P.(fs.IsDir); ok && isId(iff.Else) {
			if p, ok := mkdirOf(iff.Then); ok && p == d.Path {
				return p, true
			}
		}
	}
	// if (dir?(p)) id else mkdir(p)
	if d, ok := iff.A.(fs.IsDir); ok && isId(iff.Then) {
		if p, ok := mkdirOf(iff.Else); ok && p == d.Path {
			return p, true
		}
	}
	// if (none?(p)) mkdir(p) else if (file?(p)) err else id
	if nn, ok := iff.A.(fs.IsNone); ok {
		if p, ok := mkdirOf(iff.Then); ok && p == nn.Path {
			if inner, ok := iff.Else.(fs.If); ok {
				if f, ok := inner.A.(fs.IsFile); ok && f.Path == p &&
					isErr(inner.Then) && isId(inner.Else) {
					return p, true
				}
			}
		}
	}
	return "", false
}

// Commute conservatively decides e1;e2 ≡ e2;e1 from the two summaries
// (lemma 4). The compatible overlaps on a path are: ⊥ with anything,
// R with R, and D with D. Additionally, an expression that observes the
// child-set of a directory d conflicts with any expression that writes or
// ensures a child of d.
func Commute(a, b *Summary) bool {
	for p, ea := range a.paths {
		if ea == Bot {
			continue
		}
		eb := b.paths[p]
		if !compatible(ea, eb) {
			return false
		}
	}
	// (The loop above covers all overlaps since compatible is symmetric and
	// paths absent from a.paths have effect ⊥ there.)
	if childObsConflict(a, b) || childObsConflict(b, a) {
		return false
	}
	return true
}

func compatible(x, y Effect) bool {
	switch {
	case x == Bot || y == Bot:
		return true
	case x == Read && y == Read:
		return true
	case x == EnsureDir && y == EnsureDir:
		return true
	default:
		return false
	}
}

// childObsConflict reports whether a observes the child-set of a directory
// in which b creates or removes entries.
func childObsConflict(a, b *Summary) bool {
	for d := range a.childObs {
		for p, eb := range b.paths {
			if eb == Bot || eb == Read {
				continue
			}
			if p.IsChildOf(d) {
				return true
			}
		}
	}
	return false
}
