// Package smt is a small finite-domain SMT layer on top of the CDCL solver
// in package sat. It provides a hash-consed boolean term DAG with constant
// folding, Tseitin conversion to CNF, and enum-sorted terms in a binary
// (bit-vector) encoding.
//
// Rehearsal's formulas (paper section 4.1) range over a finite domain: the
// state of each path is one of {does-not-exist, directory, file(c)} with c
// drawn from a finite content vocabulary, so every formula the checker
// emits is expressible here. This is the substitution for Z3 described in
// DESIGN.md.
package smt

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/sat"
)

// T identifies a boolean term in a Solver's term DAG. The constants
// TrueT/FalseT are valid in every solver.
type T int32

// The two constant terms.
const (
	FalseT T = 0
	TrueT  T = 1
)

type op uint8

const (
	opConst op = iota // value in aux: 0 false, 1 true
	opVar             // fresh boolean variable
	opNot             // args[0]
	opAnd             // args (n-ary, sorted)
	opOr              // args (n-ary, sorted)
	opIte             // args[0] ? args[1] : args[2]
)

type node struct {
	op   op
	args []T
	name string // for opVar, diagnostic only
}

// Sort is a finite enumeration sort with values 0..Size-1.
type Sort struct {
	Name string
	Size int
}

// Bits returns the number of bits of the binary encoding of the sort.
func (s Sort) Bits() int {
	if s.Size <= 1 {
		return 0
	}
	n := 0
	for v := s.Size - 1; v > 0; v >>= 1 {
		n++
	}
	return n
}

// Enum is a term of an enumeration sort, encoded as bits (little-endian).
// Enums are created through Solver methods and may only be combined with
// Enums of the same sort.
type Enum struct {
	Sort Sort
	bits []T
}

// Same reports whether two enums are syntactically identical terms (same
// sort and bit-for-bit equal). Same implies semantic equality; the converse
// requires the solver.
func (e Enum) Same(o Enum) bool {
	if e.Sort != o.Sort || len(e.bits) != len(o.bits) {
		return false
	}
	for i := range e.bits {
		if e.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Solver couples a term DAG with a sat.Solver. Terms are built with the
// construction methods, constraints added with Assert, and satisfiability
// decided with Check.
type Solver struct {
	sat   *sat.Solver
	nodes []node
	memo  map[string]T
	key   []byte // reused buffer for hash-cons keys (see keyOf)
	// scratch is nary's reused argument buffer; nodes never keep it.
	scratch []T

	// compiled holds each term's Tseitin literal, indexed by T; the zero
	// Lit (variable 0, which the SAT solver never hands out) marks a term
	// not compiled yet.
	compiled []sat.Lit
	trueLit  sat.Lit

	asserted []T
	nextTmp  int

	// Limits polled while terms are built and compiled (see Interrupted).
	// dropped is one more than the scope depth of the outermost assertion
	// whose compilation was cut short, 0 when there is none.
	deadline time.Time
	stop     *atomic.Bool
	polls    int
	halted   bool
	dropped  int

	// Incremental state (see incremental.go): open assertion scopes, each
	// guarded by an activation literal, and the status of the most recent
	// Check — model accessors require it to be sat.Sat.
	scopes     []scope
	lastStatus sat.Status

	// Fold's per-term results and its reused walk state (see fold.go):
	// foldSeen stamps the nodes of the current walk with foldGen and
	// foldSlot gives each its row in foldTab.
	foldMemo  []int8
	foldSeen  []uint32
	foldSlot  []int32
	foldGen   uint32
	foldOrder []T
	foldNodes int
	foldVars  int
	foldTab   []uint64
}

// NewSolver creates an empty solver containing only the constant terms.
func NewSolver() *Solver {
	s := &Solver{
		sat:  sat.New(),
		memo: make(map[string]T),
	}
	// Nodes 0 and 1 are the constants.
	s.nodes = append(s.nodes,
		node{op: opConst},
		node{op: opConst},
	)
	v := s.sat.NewVar()
	s.trueLit = sat.PosLit(v)
	s.sat.AddClause(s.trueLit)
	s.setCompiled(TrueT, s.trueLit)
	s.setCompiled(FalseT, s.trueLit.Neg())
	return s
}

// SetBudget bounds the number of SAT conflicts per Check call; 0 means
// unlimited. Exhausted budgets make Check return sat.Unknown.
func (s *Solver) SetBudget(conflicts int64) { s.sat.Budget = conflicts }

// SetDeadline makes Check return sat.Unknown once the deadline passes; the
// zero time removes the deadline. It also bounds compilation and the
// encoders that poll Interrupted.
func (s *Solver) SetDeadline(t time.Time) {
	s.sat.Deadline = t
	s.deadline = t
	s.halted = false
}

// SetStop installs (or with nil clears) a cancellation flag on the SAT
// backend: a running Check returns sat.Unknown shortly after the flag
// becomes true, leaving the solver reusable. Cancellation of a
// determinacy check reaches the search through it, and compilation and
// the encoders through Interrupted.
func (s *Solver) SetStop(f *atomic.Bool) {
	s.sat.SetStop(f)
	s.stop = f
	s.halted = false
}

// pollEvery is how many Interrupted calls share one reading of the clock.
const pollEvery = 256

// Interrupted reports whether the stop flag is set or the deadline has
// passed. Code that builds terms in bulk polls it every step and gives up
// once it answers true; every later Check then answers sat.Unknown. It
// reads the clock only every pollEvery calls, and once it has answered
// true it keeps doing so until SetDeadline or SetStop installs new limits.
func (s *Solver) Interrupted() bool {
	if s.halted {
		return true
	}
	if s.stop != nil && s.stop.Load() {
		s.halted = true
	} else if !s.deadline.IsZero() {
		if s.polls++; s.polls%pollEvery == 0 && time.Now().After(s.deadline) {
			s.halted = true
		}
	}
	return s.halted
}

// Counters returns the SAT backend's cumulative search counters.
func (s *Solver) Counters() sat.Counters { return s.sat.Counters() }

// Stats reports the underlying SAT solver statistics.
func (s *Solver) Stats() string { return s.sat.Stats() }

// NumTerms returns the number of distinct terms created.
func (s *Solver) NumTerms() int { return len(s.nodes) }

// keyOf renders a hash-cons key into the solver's reused buffer: the
// prefix, then the ids in decimal, comma-separated. The bytes are valid
// until the next call.
func (s *Solver) keyOf(prefix string, ids ...T) []byte {
	b := append(s.key[:0], prefix...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	s.key = b
	return b
}

// intern returns the term under key, creating it with a copy of args when
// the key is new; a hit allocates nothing.
func (s *Solver) intern(key []byte, o op, args ...T) T {
	if t, ok := s.memo[string(key)]; ok {
		return t
	}
	t := T(len(s.nodes))
	s.nodes = append(s.nodes, node{op: o, args: slices.Clone(args)})
	s.memo[string(key)] = t
	return t
}

// Bool returns the constant term for b.
func (s *Solver) Bool(b bool) T {
	if b {
		return TrueT
	}
	return FalseT
}

// Var creates a fresh boolean variable term. The name is diagnostic only;
// distinct calls always create distinct variables.
func (s *Solver) Var(name string) T {
	t := T(len(s.nodes))
	s.nodes = append(s.nodes, node{op: opVar, name: name})
	return t
}

// Not returns the negation of t.
func (s *Solver) Not(t T) T {
	switch t {
	case TrueT:
		return FalseT
	case FalseT:
		return TrueT
	}
	if n := s.nodes[t]; n.op == opNot {
		return n.args[0]
	}
	return s.intern(s.keyOf("!", t), opNot, t)
}

// And returns the conjunction of the terms, folding constants and
// deduplicating arguments.
func (s *Solver) And(ts ...T) T {
	return s.nary(opAnd, FalseT, TrueT, ts)
}

// Or returns the disjunction of the terms.
func (s *Solver) Or(ts ...T) T {
	return s.nary(opOr, TrueT, FalseT, ts)
}

// nary builds an n-ary gate; dominant annihilates (false for and, true for
// or), identity is dropped. The arguments are flattened, sorted and
// deduplicated in the solver's scratch slice, so a gate that is already
// hash-consed costs no allocation (see intern).
func (s *Solver) nary(o op, dominant, identity T, ts []T) T {
	args := s.scratch[:0]
	for _, t := range ts {
		if t == dominant {
			return dominant
		}
		if t == identity {
			continue
		}
		// Flatten nested gates of the same kind.
		if n := s.nodes[t]; n.op == o {
			for _, a := range n.args {
				if a == dominant {
					return dominant
				}
				if a != identity {
					args = append(args, a)
				}
			}
			continue
		}
		args = append(args, t)
	}
	slices.Sort(args)
	args = slices.Compact(args)
	s.scratch = args
	// x ∧ ¬x = false; x ∨ ¬x = true.
	for _, a := range args {
		if n := s.rawNot(a); n >= 0 {
			if _, found := slices.BinarySearch(args, n); found {
				return dominant
			}
		}
	}
	switch len(args) {
	case 0:
		return identity
	case 1:
		return args[0]
	}
	prefix := "|,"
	if o == opAnd {
		prefix = "&,"
	}
	return s.intern(s.keyOf(prefix, args...), o, args...)
}

// rawNot returns the existing negation term of t if one exists (or computes
// the trivial cases) without creating new nodes; returns -1 when unknown.
func (s *Solver) rawNot(t T) T {
	switch t {
	case TrueT:
		return FalseT
	case FalseT:
		return TrueT
	}
	if n := s.nodes[t]; n.op == opNot {
		return n.args[0]
	}
	if existing, ok := s.memo[string(s.keyOf("!", t))]; ok {
		return existing
	}
	return -1
}

// Implies returns a → b.
func (s *Solver) Implies(a, b T) T { return s.Or(s.Not(a), b) }

// Iff returns a ↔ b.
func (s *Solver) Iff(a, b T) T {
	if a == b {
		return TrueT
	}
	switch {
	case a == TrueT:
		return b
	case b == TrueT:
		return a
	case a == FalseT:
		return s.Not(b)
	case b == FalseT:
		return s.Not(a)
	}
	return s.Ite(a, b, s.Not(b))
}

// Xor returns a ⊕ b.
func (s *Solver) Xor(a, b T) T { return s.Not(s.Iff(a, b)) }

// Ite returns c ? a : b.
func (s *Solver) Ite(c, a, b T) T {
	switch {
	case c == TrueT:
		return a
	case c == FalseT:
		return b
	case a == b:
		return a
	case a == TrueT && b == FalseT:
		return c
	case a == FalseT && b == TrueT:
		return s.Not(c)
	case a == TrueT:
		return s.Or(c, b)
	case a == FalseT:
		return s.And(s.Not(c), b)
	case b == TrueT:
		return s.Or(s.Not(c), a)
	case b == FalseT:
		return s.And(c, a)
	}
	return s.intern(s.keyOf("?", c, a, b), opIte, c, a, b)
}

// Assert adds t as a constraint for subsequent Check calls. Inside a Push
// scope the constraint is retired again by the matching Pop; at the top
// level it is permanent. Asserting invalidates any previously found model.
// When Interrupted cuts t's compilation short the constraint is missing,
// so every Check answers sat.Unknown until the scope holding it is popped
// (for good at the top level).
func (s *Solver) Assert(t T) {
	s.asserted = append(s.asserted, t)
	s.lastStatus = sat.Unknown
	l, ok := s.compile(t)
	if !ok {
		if s.dropped == 0 {
			s.dropped = len(s.scopes) + 1
		}
		return
	}
	if n := len(s.scopes); n > 0 {
		// Guard by the innermost activation literal only: scopes pop LIFO,
		// so releasing that literal is what retires this clause.
		s.sat.AddClause(s.scopes[n-1].act.Neg(), l)
		return
	}
	s.sat.AddClause(l)
}

// Check decides satisfiability of the asserted constraints under the given
// assumption terms. Constraints asserted in open scopes participate via
// their activation literals. Once Interrupted has answered true it answers
// sat.Unknown without searching: terms built after the interrupt are
// placeholders (see sym.Encoder.Apply), and no verdict may rest on them.
func (s *Solver) Check(assumptions ...T) sat.Status {
	s.lastStatus = sat.Unknown
	if s.Interrupted() || s.dropped > 0 {
		return sat.Unknown
	}
	lits := make([]sat.Lit, 0, len(assumptions)+len(s.scopes))
	for _, a := range assumptions {
		l, ok := s.compile(a)
		if !ok {
			return sat.Unknown
		}
		lits = append(lits, l)
	}
	for _, sc := range s.scopes {
		lits = append(lits, sc.act)
	}
	st := s.sat.Solve(lits...)
	s.lastStatus = st
	return st
}

// BoolValue returns t's value in the model found by the last Check. It
// returns ErrNoModel unless that Check returned sat.Sat and no assertion or
// scope change has invalidated the model since.
func (s *Solver) BoolValue(t T) (bool, error) {
	if s.lastStatus != sat.Sat {
		return false, ErrNoModel
	}
	return s.eval(t, make(map[T]bool)), nil
}

func (s *Solver) eval(t T, memo map[T]bool) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	n := s.nodes[t]
	var v bool
	switch n.op {
	case opConst:
		v = t == TrueT
	case opVar:
		if l, ok := s.compiledLit(t); ok {
			v = s.sat.Value(l.Var()) == l.IsPos()
		} else {
			v = false // variable never used in a constraint: any value works
		}
	case opNot:
		v = !s.eval(n.args[0], memo)
	case opAnd:
		v = true
		for _, a := range n.args {
			if !s.eval(a, memo) {
				v = false
				break
			}
		}
	case opOr:
		v = false
		for _, a := range n.args {
			if s.eval(a, memo) {
				v = true
				break
			}
		}
	case opIte:
		if s.eval(n.args[0], memo) {
			v = s.eval(n.args[1], memo)
		} else {
			v = s.eval(n.args[2], memo)
		}
	}
	memo[t] = v
	return v
}

// compiledLit returns t's Tseitin literal if t has been compiled.
func (s *Solver) compiledLit(t T) (sat.Lit, bool) {
	if int(t) < len(s.compiled) && s.compiled[t] != 0 {
		return s.compiled[t], true
	}
	return 0, false
}

func (s *Solver) setCompiled(t T, l sat.Lit) {
	if int(t) >= len(s.compiled) {
		s.compiled = append(s.compiled, make([]sat.Lit, len(s.nodes)-len(s.compiled))...)
	}
	s.compiled[t] = l
}

// compile Tseitin-encodes t and returns its representative literal. It
// returns false when Interrupted stops it; the terms compiled by then keep
// their complete definitions, and t and the terms above it stay
// uncompiled.
func (s *Solver) compile(t T) (sat.Lit, bool) {
	if l, ok := s.compiledLit(t); ok {
		return l, true
	}
	if s.Interrupted() {
		return 0, false
	}
	n := s.nodes[t]
	var l sat.Lit
	switch n.op {
	case opVar:
		l = sat.PosLit(s.sat.NewVar())
	case opNot:
		a, ok := s.compile(n.args[0])
		if !ok {
			return 0, false
		}
		l = a.Neg()
	case opAnd:
		args := make([]sat.Lit, len(n.args))
		if !s.compileArgs(args, n.args) {
			return 0, false
		}
		l = sat.PosLit(s.sat.NewVar())
		// l ↔ ∧args
		long := make([]sat.Lit, 0, len(args)+1)
		long = append(long, l)
		for _, a := range args {
			s.sat.AddClause(l.Neg(), a)
			long = append(long, a.Neg())
		}
		s.sat.AddClause(long...)
	case opOr:
		args := make([]sat.Lit, len(n.args))
		if !s.compileArgs(args, n.args) {
			return 0, false
		}
		l = sat.PosLit(s.sat.NewVar())
		// l ↔ ∨args
		long := make([]sat.Lit, 0, len(args)+1)
		long = append(long, l.Neg())
		for _, a := range args {
			s.sat.AddClause(l, a.Neg())
			long = append(long, a)
		}
		s.sat.AddClause(long...)
	case opIte:
		var cab [3]sat.Lit
		if !s.compileArgs(cab[:], n.args) {
			return 0, false
		}
		c, a, b := cab[0], cab[1], cab[2]
		l = sat.PosLit(s.sat.NewVar())
		// l ↔ (c ? a : b)
		s.sat.AddClause(l.Neg(), c.Neg(), a)
		s.sat.AddClause(l, c.Neg(), a.Neg())
		s.sat.AddClause(l.Neg(), c, b)
		s.sat.AddClause(l, c, b.Neg())
		// Redundant but propagation-strengthening:
		s.sat.AddClause(l.Neg(), a, b)
		s.sat.AddClause(l, a.Neg(), b.Neg())
	default:
		panic("smt: compiling constant should have been cached")
	}
	s.setCompiled(t, l)
	return l, true
}

// compileArgs compiles a node's arguments in order into dst.
func (s *Solver) compileArgs(dst []sat.Lit, ts []T) bool {
	for i, a := range ts {
		l, ok := s.compile(a)
		if !ok {
			return false
		}
		dst[i] = l
	}
	return true
}

// EnumConst returns the constant term of sort with the given value.
func (s *Solver) EnumConst(sort Sort, value int) Enum {
	if value < 0 || value >= sort.Size {
		panic(fmt.Sprintf("smt: value %d out of range for sort %s (size %d)", value, sort.Name, sort.Size))
	}
	bits := make([]T, sort.Bits())
	for i := range bits {
		bits[i] = s.Bool(value>>i&1 == 1)
	}
	return Enum{Sort: sort, bits: bits}
}

// EnumVar creates a fresh variable of the sort and asserts that its value
// is within range.
func (s *Solver) EnumVar(sort Sort, name string) Enum {
	bits := make([]T, sort.Bits())
	for i := range bits {
		bits[i] = s.Var(fmt.Sprintf("%s#%d", name, i))
	}
	e := Enum{Sort: sort, bits: bits}
	s.Assert(s.enumInRange(e))
	return e
}

// enumInRange returns the term asserting e < e.Sort.Size.
func (s *Solver) enumInRange(e Enum) T {
	max := e.Sort.Size - 1
	// e ≤ max, most-significant-bit first comparison.
	lt := FalseT // strictly less given higher bits equal so far
	eq := TrueT  // equal so far
	for i := len(e.bits) - 1; i >= 0; i-- {
		mbit := max>>i&1 == 1
		if mbit {
			lt = s.Or(lt, s.And(eq, s.Not(e.bits[i])))
			eq = s.And(eq, e.bits[i])
		} else {
			eq = s.And(eq, s.Not(e.bits[i]))
		}
	}
	return s.Or(lt, eq)
}

// EnumIte returns c ? a : b for enums of the same sort.
func (s *Solver) EnumIte(c T, a, b Enum) Enum {
	if a.Sort != b.Sort {
		panic("smt: EnumIte sorts differ")
	}
	bits := make([]T, len(a.bits))
	for i := range bits {
		bits[i] = s.Ite(c, a.bits[i], b.bits[i])
	}
	return Enum{Sort: a.Sort, bits: bits}
}

// EnumEq returns the term a == b for enums of the same sort.
func (s *Solver) EnumEq(a, b Enum) T {
	if a.Sort != b.Sort {
		panic("smt: EnumEq sorts differ")
	}
	parts := make([]T, len(a.bits))
	for i := range parts {
		parts[i] = s.Iff(a.bits[i], b.bits[i])
	}
	return s.And(parts...)
}

// EnumIs returns the term e == value.
func (s *Solver) EnumIs(e Enum, value int) T {
	return s.EnumEq(e, s.EnumConst(e.Sort, value))
}

// EnumValue returns e's value in the current model. It returns ErrNoModel
// unless the last Check returned sat.Sat and no assertion or scope change
// has invalidated the model since.
func (s *Solver) EnumValue(e Enum) (int, error) {
	if s.lastStatus != sat.Sat {
		return 0, ErrNoModel
	}
	memo := make(map[T]bool)
	v := 0
	for i, b := range e.bits {
		if s.eval(b, memo) {
			v |= 1 << i
		}
	}
	if v >= e.Sort.Size {
		// An unconstrained variable bit pattern outside the range; clamp to
		// a legal value (the range assertion prevents this for variables
		// that feed constraints).
		v = 0
	}
	return v, nil
}
