package fs

// Pred is a predicate over filesystem states (figure 5). Predicates test
// only the *kind* of a path — whether it is a file, a directory, an empty
// directory, or absent — never file contents. This restriction is what makes
// the finite-domain symbolic encoding complete (see DESIGN.md).
type Pred interface{ isPred() }

// True is the predicate that always holds.
type True struct{}

// False is the predicate that never holds.
type False struct{}

// Not negates a predicate.
type Not struct{ P Pred }

// And is conjunction.
type And struct{ L, R Pred }

// Or is disjunction.
type Or struct{ L, R Pred }

// IsFile holds when Path is a regular file.
type IsFile struct{ Path Path }

// IsDir holds when Path is a directory.
type IsDir struct{ Path Path }

// IsEmptyDir holds when Path is a directory with no children.
type IsEmptyDir struct{ Path Path }

// IsNone holds when Path does not exist.
type IsNone struct{ Path Path }

func (True) isPred()       {}
func (False) isPred()      {}
func (Not) isPred()        {}
func (And) isPred()        {}
func (Or) isPred()         {}
func (IsFile) isPred()     {}
func (IsDir) isPred()      {}
func (IsEmptyDir) isPred() {}
func (IsNone) isPred()     {}

// AndAll folds predicates with conjunction; AndAll() == True.
func AndAll(preds ...Pred) Pred {
	var out Pred = True{}
	for i, p := range preds {
		if i == 0 {
			out = p
		} else {
			out = And{out, p}
		}
	}
	return out
}

// OrAll folds predicates with disjunction; OrAll() == False.
func OrAll(preds ...Pred) Pred {
	var out Pred = False{}
	for i, p := range preds {
		if i == 0 {
			out = p
		} else {
			out = Or{out, p}
		}
	}
	return out
}

// Expr is an FS expression (figure 5). Expressions denote functions from
// filesystem states to either a new state or the error state.
type Expr interface{ isExpr() }

// Id is the no-op expression.
type Id struct{}

// Err halts with an error.
type Err struct{}

// Mkdir creates directory Path; errors unless the parent is a directory and
// Path does not exist.
type Mkdir struct{ Path Path }

// Creat creates a regular file at Path with Content; errors unless the
// parent is a directory and Path does not exist.
type Creat struct {
	Path    Path
	Content string
}

// Rm removes a file or an empty directory; errors otherwise.
type Rm struct{ Path Path }

// Cp copies the file at Src to Dst; errors unless Src is a file, Dst's
// parent is a directory and Dst does not exist.
type Cp struct{ Src, Dst Path }

// Seq sequences two expressions, short-circuiting on error.
type Seq struct{ E1, E2 Expr }

// If branches on predicate A.
type If struct {
	A          Pred
	Then, Else Expr
}

func (Id) isExpr()    {}
func (Err) isExpr()   {}
func (Mkdir) isExpr() {}
func (Creat) isExpr() {}
func (Rm) isExpr()    {}
func (Cp) isExpr()    {}
func (Seq) isExpr()   {}
func (If) isExpr()    {}

// SeqAll sequences expressions left to right, dropping no-ops.
// SeqAll() == Id.
func SeqAll(exprs ...Expr) Expr {
	var out Expr = Id{}
	for _, e := range exprs {
		if _, ok := e.(Id); ok {
			continue
		}
		if _, ok := out.(Id); ok {
			out = e
		} else {
			out = Seq{out, e}
		}
	}
	return out
}

// Guard is the shorthand if (a) e from section 3.2: If(a, e, Id).
func Guard(a Pred, e Expr) Expr { return If{a, e, Id{}} }

// MkdirIfMissing is the idiomatic idempotent directory creation that the
// commutativity analysis recognizes as a D-effect (section 4.3):
//
//	if (¬dir?(p)) mkdir(p)
func MkdirIfMissing(p Path) Expr {
	return Guard(Not{IsDir{p}}, Mkdir{p})
}

// Size returns the number of AST nodes in e; used for reporting and tests.
func Size(e Expr) int {
	switch e := e.(type) {
	case Seq:
		return 1 + Size(e.E1) + Size(e.E2)
	case If:
		return 1 + predSize(e.A) + Size(e.Then) + Size(e.Else)
	default:
		return 1
	}
}

func predSize(a Pred) int {
	switch a := a.(type) {
	case Not:
		return 1 + predSize(a.P)
	case And:
		return 1 + predSize(a.L) + predSize(a.R)
	case Or:
		return 1 + predSize(a.L) + predSize(a.R)
	default:
		return 1
	}
}

// PredPaths returns the set of paths mentioned syntactically in a.
func PredPaths(a Pred) PathSet {
	s := make(PathSet)
	addPredPaths(a, s)
	return s
}

func addPredPaths(a Pred, s PathSet) {
	switch a := a.(type) {
	case Not:
		addPredPaths(a.P, s)
	case And:
		addPredPaths(a.L, s)
		addPredPaths(a.R, s)
	case Or:
		addPredPaths(a.L, s)
		addPredPaths(a.R, s)
	case IsFile:
		s.Add(a.Path)
	case IsDir:
		s.Add(a.Path)
	case IsEmptyDir:
		s.Add(a.Path)
	case IsNone:
		s.Add(a.Path)
	}
}

// ExprPaths returns the set of paths mentioned syntactically in e.
func ExprPaths(e Expr) PathSet {
	s := make(PathSet)
	addExprPaths(e, s)
	return s
}

func addExprPaths(e Expr, s PathSet) {
	switch e := e.(type) {
	case Mkdir:
		s.Add(e.Path)
	case Creat:
		s.Add(e.Path)
	case Rm:
		s.Add(e.Path)
	case Cp:
		s.Add(e.Src)
		s.Add(e.Dst)
	case Seq:
		addExprPaths(e.E1, s)
		addExprPaths(e.E2, s)
	case If:
		addPredPaths(e.A, s)
		addExprPaths(e.Then, s)
		addExprPaths(e.Else, s)
	}
}

// Contents returns the set of file-content literals appearing in e (from
// creat operations). The symbolic encoding uses this as part of its finite
// content vocabulary.
func Contents(e Expr) map[string]struct{} {
	s := make(map[string]struct{})
	addContents(e, s)
	return s
}

func addContents(e Expr, s map[string]struct{}) {
	switch e := e.(type) {
	case Creat:
		s[e.Content] = struct{}{}
	case Seq:
		addContents(e.E1, s)
		addContents(e.E2, s)
	case If:
		addContents(e.Then, s)
		addContents(e.Else, s)
	}
}

// Dom computes the bounded path domain of e per figure 8: the syntactic
// paths of e plus their parents (mkdir/creat/cp read the parent) plus a
// fresh child for every path that is removed or tested for emptiness, since
// the semantics of rm(p) and emptydir?(p) observe children of p that may not
// appear in the program text.
func Dom(e Expr) PathSet {
	s := make(PathSet)
	addDom(e, s)
	return s
}

// AddDom inserts Dom(e) into s without building it as a set of its own.
func (s PathSet) AddDom(e Expr) { addDom(e, s) }

func addDom(e Expr, s PathSet) {
	switch e := e.(type) {
	case Mkdir:
		s.Add(e.Path)
		addParent(e.Path, s)
	case Creat:
		s.Add(e.Path)
		addParent(e.Path, s)
	case Rm:
		s.Add(e.Path)
		s.Add(e.Path.FreshChild())
	case Cp:
		s.Add(e.Src)
		s.Add(e.Dst)
		addParent(e.Dst, s)
	case Seq:
		addDom(e.E1, s)
		addDom(e.E2, s)
	case If:
		addPredDom(e.A, s)
		addDom(e.Then, s)
		addDom(e.Else, s)
	}
}

func addPredDom(a Pred, s PathSet) {
	switch a := a.(type) {
	case Not:
		addPredDom(a.P, s)
	case And:
		addPredDom(a.L, s)
		addPredDom(a.R, s)
	case Or:
		addPredDom(a.L, s)
		addPredDom(a.R, s)
	case IsFile:
		s.Add(a.Path)
	case IsDir:
		s.Add(a.Path)
	case IsEmptyDir:
		s.Add(a.Path)
		s.Add(a.Path.FreshChild())
	case IsNone:
		s.Add(a.Path)
	}
}

func addParent(p Path, s PathSet) {
	if parent := p.Parent(); !parent.IsRoot() {
		s.Add(parent)
	}
}
