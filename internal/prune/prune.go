// Package prune implements the resource-shrinking machinery of section 4.4:
// a definitive-write abstract interpretation (figure 10b) that detects
// paths an expression always leaves in the same state, and a pruning
// partial evaluator (figure 10a) that removes writes to a path while
// residualizing the reads and error checks that depended on them.
//
// Pruning a path from the single resource that touches it can shrink a
// several-hundred-file package model down to the handful of paths other
// resources interact with, which is what makes the determinacy check of
// section 4 scale (figure 11).
package prune

import (
	"repro/internal/commute"
	"repro/internal/fs"
)

// AbsKind classifies the definitive effect of an expression on a path.
type AbsKind uint8

// The abstract lattice of figure 10b: Bot ⊏ Dir, File, Dne ⊏ Top.
const (
	AbsBot  AbsKind = iota // not written
	AbsDir                 // ensured to be a directory on all success paths
	AbsFile                // ensured to be a file on all success paths
	AbsDne                 // ensured to not exist on all success paths
	AbsTop                 // indeterminate (input- or branch-dependent)
)

func (k AbsKind) String() string {
	switch k {
	case AbsBot:
		return "⊥"
	case AbsDir:
		return "dir"
	case AbsFile:
		return "file"
	case AbsDne:
		return "dne"
	default:
		return "⊤"
	}
}

// AbsValue is the abstract final state of a path.
type AbsValue struct {
	Kind         AbsKind
	Content      string // meaningful when Kind == AbsFile and ContentKnown
	ContentKnown bool
}

// Definitive reports whether the value pins the path's final state
// independent of the input (a definitive write in the paper's sense).
func (v AbsValue) Definitive() bool {
	switch v.Kind {
	case AbsDir, AbsDne:
		return true
	case AbsFile:
		return v.ContentKnown
	default:
		return false
	}
}

func joinAbs(a, b AbsValue) AbsValue {
	if a == b {
		return a
	}
	if a.Kind == AbsFile && b.Kind == AbsFile {
		return AbsValue{Kind: AbsFile} // content unknown
	}
	return AbsValue{Kind: AbsTop}
}

// DefinitiveWrites computes ĴeK⊥ (figure 10b): for every path the
// expression writes, the abstract value characterizing its state on every
// successful run. Paths the expression never writes are absent (⊥).
// Control-flow branches that definitely error are excluded, since their
// final states are unobservable.
func DefinitiveWrites(e fs.Expr) map[fs.Path]AbsValue {
	state := make(map[fs.Path]AbsValue)
	definitive(e, state)
	return state
}

// definitive interprets e over state, returning whether e definitely
// errors on every run.
func definitive(e fs.Expr, state map[fs.Path]AbsValue) bool {
	// The guarded directory-creation idioms ensure the path is a directory
	// on every success path even though only one branch writes; recognize
	// them so package models (trees of guarded mkdirs) stay definitive.
	if p, ok := commute.GuardedMkdirPath(e); ok {
		state[p] = AbsValue{Kind: AbsDir}
		return false
	}
	switch e := e.(type) {
	case fs.Id:
		return false
	case fs.Err:
		return true
	case fs.Mkdir:
		state[e.Path] = AbsValue{Kind: AbsDir}
		return false
	case fs.Creat:
		state[e.Path] = AbsValue{Kind: AbsFile, Content: e.Content, ContentKnown: true}
		return false
	case fs.Rm:
		state[e.Path] = AbsValue{Kind: AbsDne}
		return false
	case fs.Cp:
		state[e.Dst] = AbsValue{Kind: AbsFile} // content flows from input
		return false
	case fs.Seq:
		if definitive(e.E1, state) {
			return true
		}
		return definitive(e.E2, state)
	case fs.If:
		thenState := cloneAbs(state)
		elseState := cloneAbs(state)
		thenErrs := definitive(e.Then, thenState)
		elseErrs := definitive(e.Else, elseState)
		switch {
		case thenErrs && elseErrs:
			return true
		case thenErrs:
			replaceAbs(state, elseState)
		case elseErrs:
			replaceAbs(state, thenState)
		default:
			merged := make(map[fs.Path]AbsValue)
			for p := range union(thenState, elseState) {
				merged[p] = joinAbs(lookupAbs(thenState, p), lookupAbs(elseState, p))
			}
			replaceAbs(state, merged)
		}
		return false
	default:
		panic("prune: unknown expression")
	}
}

func cloneAbs(m map[fs.Path]AbsValue) map[fs.Path]AbsValue {
	out := make(map[fs.Path]AbsValue, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func replaceAbs(dst, src map[fs.Path]AbsValue) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func lookupAbs(m map[fs.Path]AbsValue, p fs.Path) AbsValue {
	if v, ok := m[p]; ok {
		return v
	}
	return AbsValue{Kind: AbsBot}
}

func union(a, b map[fs.Path]AbsValue) map[fs.Path]struct{} {
	out := make(map[fs.Path]struct{}, len(a)+len(b))
	for p := range a {
		out[p] = struct{}{}
	}
	for p := range b {
		out[p] = struct{}{}
	}
	return out
}
