package smt

// Exact constant folding of small terms. Hash-consing folds only what is
// constant syntactically; a term such as ¬isFile(p) over a state the
// program has already pinned can be constant false while still mentioning
// input bits. Fold decides such terms by evaluating them on every
// assignment of their support, so the encoder can take one branch of a
// guard instead of merging both under a condition the SAT search would
// have to re-derive on every path.

// Caps on the terms Fold evaluates: at most foldMaxVars variables in the
// support (2^10 assignments, 16 words of truth table per node) and at
// most foldMaxNodes distinct nodes in the DAG.
const (
	foldMaxVars  = 10
	foldMaxNodes = 2000
)

// Per-term fold results, cached in Solver.foldMemo indexed by T.
const (
	foldUnknown int8 = iota // not folded yet
	foldBig                 // over a cap: left as is
	foldOpen                // within the caps, not constant
	foldFalse
	foldTrue
)

// Fold returns TrueT or FalseT when t takes that value under every
// assignment of its variables, and t itself otherwise or when t is over
// the size caps (more than 10 variables or 2,000 DAG nodes in its
// support). The evaluation enumerates every bit pattern, including enum
// codes outside their sort, so a fold never relies on asserted range
// constraints or on the open Push scopes: it is valid in every scope and
// for every later query. Results are cached per term and survive Pop,
// because terms are permanent.
func (s *Solver) Fold(t T) T {
	if t == TrueT || t == FalseT {
		return t
	}
	if int(t) >= len(s.foldMemo) {
		s.foldMemo = append(s.foldMemo, make([]int8, len(s.nodes)-len(s.foldMemo))...)
	}
	if s.foldMemo[t] == foldUnknown {
		s.foldMemo[t] = s.foldEval(t)
	}
	switch s.foldMemo[t] {
	case foldTrue:
		return TrueT
	case foldFalse:
		return FalseT
	}
	return t
}

// foldEval collects t's DAG within the caps and evaluates it on all
// assignments of its support, bit-parallel: each node gets one truth
// table of 2^k bits, 64 assignments per word.
func (s *Solver) foldEval(t T) int8 {
	if len(s.foldSeen) < len(s.nodes) {
		s.foldSeen = append(s.foldSeen, make([]uint32, len(s.nodes)-len(s.foldSeen))...)
		s.foldSlot = append(s.foldSlot, make([]int32, len(s.nodes)-len(s.foldSlot))...)
	}
	s.foldGen++
	if s.foldGen == 0 { // wrapped: stale stamps could collide
		clear(s.foldSeen)
		s.foldGen = 1
	}
	s.foldOrder = s.foldOrder[:0]
	s.foldNodes, s.foldVars = 0, 0
	if !s.foldCollect(t) {
		return foldBig
	}

	words := 1
	if s.foldVars > 6 {
		words = 1 << (s.foldVars - 6)
	}
	need := len(s.foldOrder) * words
	if cap(s.foldTab) < need {
		s.foldTab = make([]uint64, need)
	}
	tab := s.foldTab[:need]
	row := func(u T) []uint64 {
		i := int(s.foldSlot[u]) * words
		return tab[i : i+words]
	}
	nextVar := 0
	for i, u := range s.foldOrder {
		out := tab[i*words : (i+1)*words]
		n := &s.nodes[u]
		switch n.op {
		case opConst:
			fill := uint64(0)
			if u == TrueT {
				fill = ^uint64(0)
			}
			for w := range out {
				out[w] = fill
			}
		case opVar:
			varPattern(out, nextVar)
			nextVar++
		case opNot:
			a := row(n.args[0])
			for w := range out {
				out[w] = ^a[w]
			}
		case opAnd:
			copy(out, row(n.args[0]))
			for _, arg := range n.args[1:] {
				a := row(arg)
				for w := range out {
					out[w] &= a[w]
				}
			}
		case opOr:
			copy(out, row(n.args[0]))
			for _, arg := range n.args[1:] {
				a := row(arg)
				for w := range out {
					out[w] |= a[w]
				}
			}
		case opIte:
			c, a, b := row(n.args[0]), row(n.args[1]), row(n.args[2])
			for w := range out {
				out[w] = c[w]&a[w] | ^c[w]&b[w]
			}
		}
	}

	// With fewer than 6 variables only the low 2^k bits of the single
	// word are assignments.
	mask := ^uint64(0)
	if s.foldVars < 6 {
		mask = 1<<(1<<s.foldVars) - 1
	}
	res := tab[(len(s.foldOrder)-1)*words:]
	var some, all uint64 = 0, mask
	for _, w := range res {
		some |= w & mask
		all &= w
	}
	switch {
	case some == 0:
		return foldFalse
	case all == mask:
		return foldTrue
	}
	return foldOpen
}

// foldCollect walks t's DAG depth first, appending the nodes to foldOrder
// in post-order (arguments before the node). It counts nodes and
// variables on entry, which also bounds the recursion depth, and returns
// false as soon as either cap is passed, or on reaching a term already
// known to be over them, so a large support costs at most the caps' worth
// of work.
func (s *Solver) foldCollect(t T) bool {
	if s.foldSeen[t] == s.foldGen {
		return true
	}
	if s.foldMemo[t] == foldBig {
		return false
	}
	s.foldSeen[t] = s.foldGen
	if s.foldNodes++; s.foldNodes > foldMaxNodes {
		return false
	}
	n := &s.nodes[t]
	if n.op == opVar {
		if s.foldVars++; s.foldVars > foldMaxVars {
			return false
		}
	}
	for _, a := range n.args {
		if !s.foldCollect(a) {
			return false
		}
	}
	s.foldSlot[t] = int32(len(s.foldOrder))
	s.foldOrder = append(s.foldOrder, t)
	return true
}

// varPattern fills out with the truth table of variable i: bit j of the
// table (assignment j) is bit i of j.
func varPattern(out []uint64, i int) {
	if i < 6 {
		p := [6]uint64{
			0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
		}[i]
		for w := range out {
			out[w] = p
		}
		return
	}
	for w := range out {
		out[w] = 0
		if w>>(i-6)&1 == 1 {
			out[w] = ^uint64(0)
		}
	}
}
