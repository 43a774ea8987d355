package sym

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/smt"
)

// PathState is the symbolic state of one path: its kind and, when the kind
// is file, its content token.
type PathState struct {
	Kind    smt.Enum
	Content smt.Enum
}

// stateChunk is the number of path states in one copy-on-write chunk of
// a State.
const stateChunk = 32

type chunk [stateChunk]PathState

// State is a logical state Σ (figure 7): an ok formula plus a symbolic
// filesystem over the vocabulary's path domain. The filesystem is an
// array indexed by each path's position in the Vocab, split into
// fixed-size chunks that states share copy-on-write: updating one path
// copies the one chunk holding it, and merging two branch states reuses
// every chunk the branches left identical.
//
// The ok formula is kept as a materialized term base conjoined with a
// persistent list of pending guards: a step appends its guards in O(1)
// and states share the list's tail, so a chain of n steps builds no
// conjunction until Encoder.Ok observes it, and then builds one.
//
// States are immutable to callers; Encoder.Apply returns new states. The
// one write after construction is Encoder.Ok replacing base and pending
// with the conjunction it built, which leaves the formula unchanged. That
// memo is encoder-local: a state is only ever read through the encoder
// that built it, and an encoder is used by one goroutine at a time.
type State struct {
	base    smt.T
	pending *guard
	v       *Vocab
	chunks  []*chunk
}

// guard is one cell of a state's pending-guard list.
type guard struct {
	t    smt.T
	next *guard
}

// newState returns a state over v's domain whose ok formula is true and
// whose path states come from init, called once per path in domain order.
func newState(v *Vocab, init func(p fs.Path) PathState) *State {
	st := &State{base: smt.TrueT, v: v, chunks: make([]*chunk, (len(v.Paths)+stateChunk-1)/stateChunk)}
	for k := range st.chunks {
		st.chunks[k] = new(chunk)
	}
	for i, p := range v.Paths {
		st.chunks[i/stateChunk][i%stateChunk] = init(p)
	}
	return st
}

// Lookup returns the symbolic state of p, which must be in the domain.
func (st *State) Lookup(p fs.Path) PathState {
	i := st.index(p)
	return st.chunks[i/stateChunk][i%stateChunk]
}

func (st *State) index(p fs.Path) int {
	i, ok := st.v.pathIdx[p]
	if !ok {
		panic(fmt.Sprintf("sym: path %s not in state", p))
	}
	return i
}

// with returns st with p's state replaced by ps and guards gs added to
// its ok formula. A false guard makes the ok formula false, which drops
// the pending list; a true one adds nothing.
func (st *State) with(p fs.Path, ps PathState, gs ...smt.T) *State {
	i := st.index(p)
	chunks := make([]*chunk, len(st.chunks))
	copy(chunks, st.chunks)
	c := *chunks[i/stateChunk]
	c[i%stateChunk] = ps
	chunks[i/stateChunk] = &c
	out := &State{base: st.base, pending: st.pending, v: st.v, chunks: chunks}
	for _, g := range gs {
		switch {
		case out.base == smt.FalseT || g == smt.TrueT:
		case g == smt.FalseT:
			out.base, out.pending = smt.FalseT, nil
		default:
			out.pending = &guard{t: g, next: out.pending}
		}
	}
	return out
}

// Ok returns st's ok formula: the conjunction of its base and pending
// guards, built once and memoized on st. The conjunction has the argument
// set a step-by-step chain of And calls reaches (smt's And flattens,
// sorts and deduplicates), without that chain's intermediate gates.
func (en *Encoder) Ok(st *State) smt.T {
	if st.pending == nil {
		return st.base
	}
	args := append(en.okArgs[:0], st.base)
	for g := st.pending; g != nil; g = g.next {
		args = append(args, g.t)
	}
	en.okArgs = args
	st.base, st.pending = en.S.And(args...), nil
	return st.base
}

// Encoder translates FS expressions into formulas over a Solver.
type Encoder struct {
	S *smt.Solver
	V *Vocab
	// okArgs is Ok's reused argument buffer.
	okArgs []smt.T
}

// NewEncoder creates an encoder for the vocabulary using a fresh solver.
func NewEncoder(v *Vocab) *Encoder {
	return &Encoder{S: smt.NewSolver(), V: v}
}

// FreshInputState creates the symbolic initial state: one kind variable per
// path and the constant initial-content token ι_p. Contents need no
// variables — they are only moved around by the program, never branched on.
func (en *Encoder) FreshInputState(prefix string) *State {
	return newState(en.V, func(p fs.Path) PathState {
		return PathState{
			Kind:    en.S.EnumVar(en.V.KindSort, fmt.Sprintf("%s:kind:%s", prefix, p)),
			Content: en.S.EnumConst(en.V.ContentSort, en.V.InitToken(p)),
		}
	})
}

// ConstState encodes a concrete filesystem as a constant logical state.
// Paths of the domain absent from s are encoded as does-not-exist; file
// contents must be literals of the vocabulary or concretized init tokens.
func (en *Encoder) ConstState(s fs.State) *State {
	return newState(en.V, func(p fs.Path) PathState {
		kind := KindNone
		tok := canonicalToken
		if c, ok := s[p]; ok {
			if c.Kind == fs.KindDir {
				kind = KindDir
			} else {
				kind = KindFile
				tok = en.V.LiteralToken(c.Data)
			}
		}
		return PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, kind),
			Content: en.S.EnumConst(en.V.ContentSort, tok),
		}
	})
}

// isDir returns the formula "p is a directory in st". The root is always a
// directory.
func (en *Encoder) isDir(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.TrueT
	}
	if !en.V.HasPath(p) {
		panic(fmt.Sprintf("sym: isDir on unmodeled path %s", p))
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindDir)
}

func (en *Encoder) isFile(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.FalseT
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindFile)
}

func (en *Encoder) isNone(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.FalseT
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindNone)
}

func (en *Encoder) isEmptyDir(st *State, p fs.Path) smt.T {
	none := []smt.T{en.isDir(st, p)}
	for _, q := range en.V.Children(p) {
		none = append(none, en.isNone(st, q))
	}
	return en.S.And(none...)
}

// Pred encodes predicate a over st (encPred in figure 7).
func (en *Encoder) Pred(a fs.Pred, st *State) smt.T {
	switch a := a.(type) {
	case fs.True:
		return smt.TrueT
	case fs.False:
		return smt.FalseT
	case fs.Not:
		return en.S.Not(en.Pred(a.P, st))
	case fs.And:
		return en.S.And(en.Pred(a.L, st), en.Pred(a.R, st))
	case fs.Or:
		return en.S.Or(en.Pred(a.L, st), en.Pred(a.R, st))
	case fs.IsFile:
		return en.isFile(st, a.Path)
	case fs.IsDir:
		return en.isDir(st, a.Path)
	case fs.IsEmptyDir:
		return en.isEmptyDir(st, a.Path)
	case fs.IsNone:
		return en.isNone(st, a.Path)
	default:
		panic("sym: unknown predicate")
	}
}

// Apply computes Φ(e)Σ (figure 7): the symbolic strongest postcondition of
// e from st, fusing the ok(e) and f(e) functions. It polls the solver's
// deadline and stop flag at every step; once en.S.Interrupted() it
// returns states that are cut short. en.S.Check answers sat.Unknown from
// then on, so no verdict rests on them; memos must not keep them.
func (en *Encoder) Apply(e fs.Expr, st *State) *State {
	if en.S.Interrupted() {
		return st
	}
	switch e := e.(type) {
	case fs.Id:
		return st
	case fs.Err:
		return &State{base: smt.FalseT, v: st.v, chunks: st.chunks}
	case fs.Mkdir:
		return st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindDir),
			Content: en.S.EnumConst(en.V.ContentSort, canonicalToken),
		}, en.isDir(st, e.Path.Parent()), en.isNone(st, e.Path))
	case fs.Creat:
		return st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindFile),
			Content: en.S.EnumConst(en.V.ContentSort, en.V.LiteralToken(e.Content)),
		}, en.isDir(st, e.Path.Parent()), en.isNone(st, e.Path))
	case fs.Rm:
		return st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindNone),
			Content: en.S.EnumConst(en.V.ContentSort, canonicalToken),
		}, en.S.Or(en.isFile(st, e.Path), en.isEmptyDir(st, e.Path)))
	case fs.Cp:
		return st.with(e.Dst, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindFile),
			Content: st.Lookup(e.Src).Content,
		}, en.isFile(st, e.Src), en.isDir(st, e.Dst.Parent()), en.isNone(st, e.Dst))
	case fs.Seq:
		return en.Apply(e.E2, en.Apply(e.E1, st))
	case fs.If:
		// A guard that is constant over every input takes one branch:
		// merging both under it would leave the SAT search to re-derive
		// the constant on every path.
		c := en.S.Fold(en.Pred(e.A, st))
		switch c {
		case smt.TrueT:
			return en.Apply(e.Then, st)
		case smt.FalseT:
			return en.Apply(e.Else, st)
		}
		thenSt := en.Apply(e.Then, st)
		elseSt := en.Apply(e.Else, st)
		return en.merge(c, thenSt, elseSt)
	default:
		panic("sym: unknown expression")
	}
}

// merge joins two branch states under condition c. Chunks the branches
// share, or whose path states are syntactically identical, are reused
// rather than copied.
func (en *Encoder) merge(c smt.T, a, b *State) *State {
	out := &State{base: en.S.Ite(c, en.Ok(a), en.Ok(b)), v: a.v, chunks: make([]*chunk, len(a.chunks))}
	n := len(a.v.Paths)
	for k, ca := range a.chunks {
		cb := b.chunks[k]
		out.chunks[k] = ca
		if ca == cb {
			continue
		}
		var merged *chunk
		for i := 0; i < stateChunk && k*stateChunk+i < n; i++ {
			pa, pb := ca[i], cb[i]
			if pa.Kind.Same(pb.Kind) && pa.Content.Same(pb.Content) {
				continue
			}
			if merged == nil {
				merged = new(chunk)
				*merged = *ca
				out.chunks[k] = merged
			}
			merged[i] = PathState{
				Kind:    en.S.EnumIte(c, pa.Kind, pb.Kind),
				Content: en.S.EnumIte(c, pa.Content, pb.Content),
			}
		}
	}
	return out
}

// PathDiffers returns the formula "path p differs between a and b":
// different kinds, or both files with different contents.
func (en *Encoder) PathDiffers(a, b *State, p fs.Path) smt.T {
	pa, pb := a.Lookup(p), b.Lookup(p)
	kindNeq := en.S.Not(en.S.EnumEq(pa.Kind, pb.Kind))
	bothFile := en.S.And(
		en.S.EnumIs(pa.Kind, KindFile),
		en.S.EnumIs(pb.Kind, KindFile))
	contentNeq := en.S.Not(en.S.EnumEq(pa.Content, pb.Content))
	return en.S.Or(kindNeq, en.S.And(bothFile, contentNeq))
}

// StatesDiffer returns the formula "a and b are observably different
// outcomes": exactly one errored, or both succeeded with different
// filesystems. Two error states are equal regardless of their filesystems.
// Like Apply it stops early, with a meaningless formula that en.S.Check
// will not decide, once en.S.Interrupted().
func (en *Encoder) StatesDiffer(a, b *State) smt.T {
	aOk, bOk := en.Ok(a), en.Ok(b)
	diffs := make([]smt.T, 0, len(en.V.Paths)+1)
	for _, p := range en.V.Paths {
		if en.S.Interrupted() {
			return smt.FalseT
		}
		diffs = append(diffs, en.PathDiffers(a, b, p))
	}
	bothOk := en.S.And(aOk, bOk)
	return en.S.Or(
		en.S.Xor(aOk, bOk),
		en.S.And(bothOk, en.S.Or(diffs...)),
	)
}

// WellFormed returns the formula asserting st is a well-formed tree over
// the modeled domain: every present path whose parent is also modeled has
// that parent present as a directory. Real machines always satisfy this;
// the paper's semantics quantifies over arbitrary maps, so this is an
// optional strengthening of the initial state (it can only remove
// counterexamples that no real machine could exhibit).
func (en *Encoder) WellFormed(st *State) smt.T {
	var parts []smt.T
	for _, p := range en.V.Paths {
		parent := p.Parent()
		if parent.IsRoot() || !en.V.HasPath(parent) {
			continue
		}
		exists := en.S.Not(en.isNone(st, p))
		parts = append(parts, en.S.Implies(exists, en.isDir(st, parent)))
	}
	return en.S.And(parts...)
}

// ModelState extracts the concrete filesystem assigned to st by the current
// model. Initial-content tokens concretize to unique synthetic strings;
// literal tokens to themselves. It returns smt.ErrNoModel when the last
// Check did not produce a model.
func (en *Encoder) ModelState(st *State) (fs.State, error) {
	out := fs.NewState()
	for _, p := range en.V.Paths {
		ps := st.Lookup(p)
		kind, err := en.S.EnumValue(ps.Kind)
		if err != nil {
			return nil, err
		}
		switch kind {
		case KindDir:
			out[p] = fs.DirContent()
		case KindFile:
			content, err := en.S.EnumValue(ps.Content)
			if err != nil {
				return nil, err
			}
			out[p] = fs.FileContent(en.V.TokenString(content))
		}
	}
	return out, nil
}

// ModelOk reports whether st is a success state in the current model. It
// returns smt.ErrNoModel when the last Check did not produce a model.
func (en *Encoder) ModelOk(st *State) (bool, error) {
	return en.S.BoolValue(en.Ok(st))
}
