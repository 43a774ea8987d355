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
func (g *Graph[L]) Cap() int { return len(g.labels) }

// EachPred calls fn for every direct dependency of n, in ascending order
// — Preds without the copy, for hot loops.
func (g *Graph[L]) EachPred(n Node, fn func(Node)) {
	for _, m := range adj(g.in, n) {
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
		for _, p := range g.in[n] {
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

// eachTopo calls visit on the vertices in some topological order and
// reports whether every vertex was reached — that is, whether the graph
// is acyclic.
func (g *Graph[L]) eachTopo(visit func(Node)) bool {
	indeg := g.indegrees()
	var ready []Node
	for n, ok := range g.live {
		if ok && indeg[n] == 0 {
			ready = append(ready, Node(n))
		}
	}
	done := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		visit(n)
		for _, m := range g.out[n] {
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
	c := len(g.labels)
	out := &Graph[M]{
		labels: make([]M, c),
		live:   make([]bool, c),
		out:    make([][]Node, c),
		in:     make([][]Node, c),
	}
	for n, ok := range g.live {
		if ok && keep(Node(n)) {
			out.live[n] = true
			out.nodes++
		}
	}
	var buf []Node
	for n, ok := range out.live {
		if !ok {
			continue
		}
		out.labels[n] = label(Node(n), g.labels[n])
		buf, out.out[n] = pack(buf, g.out[n], out.live)
		buf, out.in[n] = pack(buf, g.in[n], out.live)
		out.edges += len(out.out[n])
	}
	return out
}

// pack appends the members of row that live accepts to buf, and returns
// buf and the appended part, capped at its own length so that growing it
// later copies instead of writing over the next row. Packing every row
// into shared buffers costs a few allocations instead of one per vertex.
func pack(buf, row []Node, live []bool) ([]Node, []Node) {
	start := len(buf)
	for _, m := range row {
		if live[m] {
			buf = append(buf, m)
		}
	}
	return buf, buf[start:len(buf):len(buf)]
}
