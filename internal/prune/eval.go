package prune

import (
	"repro/internal/fs"
)

// trackKind is the pruner's knowledge of the pruned path's state at a
// program point: what the *original* program would have made it by now.
type trackKind uint8

const (
	trInitial  trackKind = iota // no writes dropped yet: runtime state is accurate
	trNone                      // dropped writes ensure the path does not exist
	trDir                       // dropped writes ensure the path is a directory
	trFile                      // dropped writes ensure the path is a file
	trDiverged                  // branches disagree; any further touch aborts
)

type tracked struct {
	kind         trackKind
	content      string // for trFile with contentKnown
	contentKnown bool
}

// pruner rewrites an expression to drop writes to a single path. abort is
// set when the rewrite cannot be performed soundly; the caller then skips
// pruning this path.
type pruner struct {
	path  fs.Path
	abort bool
}

// Prune removes the writes to p from e, residualizing the reads and error
// checks that observed them (figure 10a). It reports ok=false when the
// rewrite would be unsound (e.g. the expression later observes structure
// the dropped write created, such as emptiness of a directory it made).
//
// On success, for every input state σ: e and the result have the same
// error behavior and identical final states on every path except p, and
// the result never writes p.
func Prune(p fs.Path, e fs.Expr) (fs.Expr, bool) {
	pr := &pruner{path: p}
	out, _ := pr.expr(e, tracked{kind: trInitial})
	if pr.abort {
		return nil, false
	}
	return out, true
}

// boolOrUnknown is a three-valued truth for partial predicate evaluation.
type boolOrUnknown uint8

const (
	tvUnknown boolOrUnknown = iota
	tvTrue
	tvFalse
)

// pred partially evaluates a predicate with respect to the pruned path,
// returning a residual predicate and, when fully determined, its value.
func (pr *pruner) pred(a fs.Pred, t tracked) (fs.Pred, boolOrUnknown) {
	switch a := a.(type) {
	case fs.True:
		return a, tvTrue
	case fs.False:
		return a, tvFalse
	case fs.Not:
		inner, v := pr.pred(a.P, t)
		switch v {
		case tvTrue:
			return fs.False{}, tvFalse
		case tvFalse:
			return fs.True{}, tvTrue
		}
		return fs.Not{P: inner}, tvUnknown
	case fs.And:
		l, lv := pr.pred(a.L, t)
		r, rv := pr.pred(a.R, t)
		switch {
		case lv == tvFalse || rv == tvFalse:
			return fs.False{}, tvFalse
		case lv == tvTrue && rv == tvTrue:
			return fs.True{}, tvTrue
		case lv == tvTrue:
			return r, tvUnknown
		case rv == tvTrue:
			return l, tvUnknown
		}
		return fs.And{L: l, R: r}, tvUnknown
	case fs.Or:
		l, lv := pr.pred(a.L, t)
		r, rv := pr.pred(a.R, t)
		switch {
		case lv == tvTrue || rv == tvTrue:
			return fs.True{}, tvTrue
		case lv == tvFalse && rv == tvFalse:
			return fs.False{}, tvFalse
		case lv == tvFalse:
			return r, tvUnknown
		case rv == tvFalse:
			return l, tvUnknown
		}
		return fs.Or{L: l, R: r}, tvUnknown
	case fs.IsFile:
		if a.Path != pr.path {
			return a, tvUnknown
		}
		switch pr.require(t).kind {
		case trInitial:
			return a, tvUnknown
		case trFile:
			return fs.True{}, tvTrue
		case trNone, trDir:
			return fs.False{}, tvFalse
		}
		return a, tvUnknown // aborted
	case fs.IsDir:
		if a.Path != pr.path {
			return a, tvUnknown
		}
		switch pr.require(t).kind {
		case trInitial:
			return a, tvUnknown
		case trDir:
			return fs.True{}, tvTrue
		case trNone, trFile:
			return fs.False{}, tvFalse
		}
		return a, tvUnknown
	case fs.IsNone:
		if a.Path != pr.path {
			return a, tvUnknown
		}
		switch pr.require(t).kind {
		case trInitial:
			return a, tvUnknown
		case trNone:
			return fs.True{}, tvTrue
		case trDir, trFile:
			return fs.False{}, tvFalse
		}
		return a, tvUnknown
	case fs.IsEmptyDir:
		// emptydir?(q) observes q itself and the presence of q's children.
		if a.Path == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return a, tvUnknown
			case trNone, trFile:
				return fs.False{}, tvFalse
			default:
				// A dropped write made it a directory; its emptiness now
				// depends on state the residual cannot express.
				pr.abort = true
				return a, tvUnknown
			}
		}
		if pr.path.IsChildOf(a.Path) && t.kind != trInitial {
			// The predicate observes the pruned path's presence.
			pr.abort = true
		}
		return a, tvUnknown
	default:
		panic("prune: unknown predicate")
	}
}

// require aborts on diverged tracking and returns t.
func (pr *pruner) require(t tracked) tracked {
	if t.kind == trDiverged {
		pr.abort = true
	}
	return t
}

// preGuard wraps the residual precondition of a dropped write: the
// original operation errored unless cond held.
func preGuard(cond fs.Pred) fs.Expr {
	if _, ok := cond.(fs.True); ok {
		return fs.Id{}
	}
	return fs.If{A: cond, Then: fs.Id{}, Else: fs.Err{}}
}

// expr rewrites e under tracking state t, returning the residual
// expression and the tracking state afterwards.
func (pr *pruner) expr(e fs.Expr, t tracked) (fs.Expr, tracked) {
	if pr.abort {
		return fs.Id{}, t
	}
	switch e := e.(type) {
	case fs.Id, fs.Err:
		return e, t
	case fs.Mkdir:
		if e.Path == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return preGuard(fs.And{
					L: fs.IsDir{Path: e.Path.Parent()},
					R: fs.IsNone{Path: e.Path},
				}), tracked{kind: trDir}
			case trNone:
				return preGuard(fs.IsDir{Path: e.Path.Parent()}), tracked{kind: trDir}
			case trDir, trFile:
				return fs.Err{}, t
			}
			return fs.Id{}, t // aborted
		}
		if e.Path.Parent() == pr.path {
			// The operation's precondition reads the pruned path.
			switch pr.require(t).kind {
			case trInitial:
				return e, t
			case trDir:
				// Parent check is known true, but mkdir itself would still
				// re-check it at runtime against the unwritten state.
				pr.abort = true
				return fs.Id{}, t
			default:
				return fs.Err{}, t
			}
		}
		return e, t
	case fs.Creat:
		if e.Path == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return preGuard(fs.And{
					L: fs.IsDir{Path: e.Path.Parent()},
					R: fs.IsNone{Path: e.Path},
				}), tracked{kind: trFile, content: e.Content, contentKnown: true}
			case trNone:
				return preGuard(fs.IsDir{Path: e.Path.Parent()}),
					tracked{kind: trFile, content: e.Content, contentKnown: true}
			case trDir, trFile:
				return fs.Err{}, t
			}
			return fs.Id{}, t
		}
		if e.Path.Parent() == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return e, t
			case trDir:
				pr.abort = true
				return fs.Id{}, t
			default:
				return fs.Err{}, t
			}
		}
		return e, t
	case fs.Rm:
		if e.Path == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return preGuard(fs.Or{
					L: fs.IsFile{Path: e.Path},
					R: fs.IsEmptyDir{Path: e.Path},
				}), tracked{kind: trNone}
			case trFile:
				return fs.Id{}, tracked{kind: trNone}
			case trDir:
				// Emptiness depends on children the residual cannot see
				// relative to the dropped mkdir.
				pr.abort = true
				return fs.Id{}, t
			case trNone:
				return fs.Err{}, t
			}
			return fs.Id{}, t
		}
		if pr.path.IsChildOf(e.Path) && t.kind != trInitial {
			// rm(parent) observes the pruned path's presence.
			pr.abort = true
			return fs.Id{}, t
		}
		return e, t
	case fs.Cp:
		srcIsP := e.Src == pr.path
		dstIsP := e.Dst == pr.path
		switch {
		case srcIsP && dstIsP:
			// cp(p, p) always errors (dst must not exist while src must).
			return fs.Err{}, t
		case dstIsP:
			switch pr.require(t).kind {
			case trInitial:
				return preGuard(fs.AndAll(
					fs.IsFile{Path: e.Src},
					fs.IsDir{Path: e.Dst.Parent()},
					fs.IsNone{Path: e.Dst},
				)), tracked{kind: trFile} // content flows from src: unknown
			case trNone:
				return preGuard(fs.And{
					L: fs.IsFile{Path: e.Src},
					R: fs.IsDir{Path: e.Dst.Parent()},
				}), tracked{kind: trFile}
			case trDir, trFile:
				return fs.Err{}, t
			}
			return fs.Id{}, t
		case srcIsP:
			switch pr.require(t).kind {
			case trInitial:
				return e, t
			case trFile:
				if t.contentKnown {
					// creat has exactly the remaining preconditions of cp.
					return fs.Creat{Path: e.Dst, Content: t.content}, t
				}
				pr.abort = true
				return fs.Id{}, t
			default:
				return fs.Err{}, t
			}
		}
		if e.Dst.Parent() == pr.path {
			switch pr.require(t).kind {
			case trInitial:
				return e, t
			case trDir:
				pr.abort = true
				return fs.Id{}, t
			default:
				return fs.Err{}, t
			}
		}
		return e, t
	case fs.Seq:
		e1, t1 := pr.expr(e.E1, t)
		e2, t2 := pr.expr(e.E2, t1)
		return fs.SeqAll(e1, e2), t2
	case fs.If:
		cond, cv := pr.pred(e.A, t)
		switch cv {
		case tvTrue:
			return pr.expr(e.Then, t)
		case tvFalse:
			return pr.expr(e.Else, t)
		}
		thenE, thenT := pr.expr(e.Then, t)
		elseE, elseT := pr.expr(e.Else, t)
		return fs.If{A: cond, Then: thenE, Else: elseE}, joinTracked(thenE, thenT, elseE, elseT)
	default:
		panic("prune: unknown expression")
	}
}

// joinTracked merges branch tracking states. Branches that are literally
// err contribute nothing (their final state is unobservable).
func joinTracked(thenE fs.Expr, thenT tracked, elseE fs.Expr, elseT tracked) tracked {
	if _, ok := thenE.(fs.Err); ok {
		return elseT
	}
	if _, ok := elseE.(fs.Err); ok {
		return thenT
	}
	if thenT.kind == elseT.kind {
		out := thenT
		if out.kind == trFile && (!elseT.contentKnown || !thenT.contentKnown || thenT.content != elseT.content) {
			out.contentKnown = false
			out.content = ""
		}
		return out
	}
	return tracked{kind: trDiverged}
}
