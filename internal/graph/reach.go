package graph

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-capacity set of vertices, one bit per node handle.
type Bits []uint64

// NewBits returns an empty set able to hold handles 0..n-1.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether n is in the set.
func (b Bits) Has(n Node) bool { return b[n>>6]&(1<<(uint(n)&63)) != 0 }

// Set adds n to the set.
func (b Bits) Set(n Node) { b[n>>6] |= 1 << (uint(n) & 63) }

// Clear removes n from the set.
func (b Bits) Clear(n Node) { b[n>>6] &^= 1 << (uint(n) & 63) }

// Next returns the smallest member that is at least from (from ≥ 0), or
// -1 when there is none.
func (b Bits) Next(from Node) Node {
	i := int(from >> 6)
	if i >= len(b) {
		return -1
	}
	w := b[i] &^ (1<<(uint(from)&63) - 1)
	for {
		if w != 0 {
			return Node(i<<6 + bits.TrailingZeros64(w))
		}
		i++
		if i == len(b) {
			return -1
		}
		w = b[i]
	}
}

// Cap returns one more than the largest handle ever issued: every vertex
// handle of the graph is below it, so it sizes Bits and handle-indexed
// slices.
func (g *Graph[L]) Cap() int { return int(g.nextID) }

// EachPred calls fn for every direct dependency of n, in no particular
// order — Preds without the sort, for hot loops that do not care.
func (g *Graph[L]) EachPred(n Node, fn func(Node)) {
	for m := range g.in[n] {
		fn(m)
	}
}

// Reach is the reachability relation of an acyclic graph, stored as
// row-major bitsets: row v holds the ancestors (transitive dependencies)
// of v. Removing a vertex with no dependents never changes reachability
// among the remaining vertices, so a Reach computed once stays exact for
// every graph obtained from the original by such removals.
type Reach struct {
	words int
	rows  []uint64
}

// Reach computes the ancestor rows of every vertex in one pass over a
// topological order: a vertex's row is the union of its dependencies'
// rows plus the dependencies themselves. The graph must be acyclic.
func (g *Graph[L]) Reach() (*Reach, error) {
	r := &Reach{words: (g.Cap() + 63) / 64}
	r.rows = make([]uint64, r.words*g.Cap())
	acyclic := g.eachTopo(func(n Node) {
		row := r.Ancestors(n)
		for p := range g.in[n] {
			row.Set(p)
			for i, w := range r.Ancestors(p) {
				row[i] |= w
			}
		}
	})
	if !acyclic {
		return nil, fmt.Errorf("graph: cyclic")
	}
	return r, nil
}

// eachTopo calls visit on the vertices in some topological order, without
// sorting adjacency sets, and reports whether every vertex was reached —
// that is, whether the graph is acyclic.
func (g *Graph[L]) eachTopo(visit func(Node)) bool {
	indeg := make([]int, g.Cap())
	var ready []Node
	for _, n := range g.Nodes() {
		indeg[n] = len(g.in[n])
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	done := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		visit(n)
		for m := range g.out[n] {
			if indeg[m]--; indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	return done == g.Len()
}

// Ancestors returns v's row: the set of vertices v transitively depends
// on. The row aliases the relation and must not be modified.
func (r *Reach) Ancestors(v Node) Bits {
	return Bits(r.rows[int(v)*r.words : (int(v)+1)*r.words])
}

// IsAncestor reports whether v transitively depends on u.
func (r *Reach) IsAncestor(u, v Node) bool { return r.Ancestors(v).Has(u) }

// Induced returns the subgraph of g on the vertices keep accepts, with
// every edge between two kept vertices, relabeled by label. Kept vertices
// retain their handles and insertion order, so handle-indexed side tables
// (such as a Reach of g) stay valid for the result. It is the one-pass,
// bulk form of calling Remove on every rejected vertex.
func Induced[L, M any](g *Graph[L], keep func(Node) bool, label func(Node, L) M) *Graph[M] {
	out := New[M]()
	out.nextID = g.nextID
	for _, n := range g.Nodes() {
		if !keep(n) {
			continue
		}
		out.labels[n] = label(n, g.labels[n])
		out.ordered = append(out.ordered, n)
		succ := make(map[Node]struct{}, len(g.out[n]))
		for m := range g.out[n] {
			if keep(m) {
				succ[m] = struct{}{}
			}
		}
		out.out[n] = succ
		pred := make(map[Node]struct{}, len(g.in[n]))
		for m := range g.in[n] {
			if keep(m) {
				pred[m] = struct{}{}
			}
		}
		out.in[n] = pred
	}
	return out
}
