// Package graph implements the resource graphs of section 3.1 (figure 4):
// directed acyclic graphs whose vertices are labeled with resources, plus
// the graph algorithms the determinacy analysis needs — cycle detection,
// topological orders, ancestor sets and bounded permutation enumeration.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Node identifies a vertex of a Graph. Handles are dense: Add issues
// 0, 1, 2, … in order, so insertion order is handle order.
type Node int

// Graph is a mutable directed graph with labeled vertices. An edge u → v
// means v depends on u (u must be applied before v). Graphs intended as
// resource graphs must be acyclic; CheckAcyclic reports violations.
//
// Storage is handle-indexed: labels and liveness are slices, and each
// vertex's successors and predecessors are one sorted, duplicate-free
// slice per direction. Every method that only reads leaves the graph
// untouched, so concurrent readers need no synchronization.
type Graph[L any] struct {
	labels []L      // zero for removed vertices
	live   []bool   // live[n]: n was added and not removed
	out    [][]Node // out[n]: sorted dependents of n
	in     [][]Node // in[n]: sorted dependencies of n
	nodes  int      // live vertices
	edges  int
}

// New creates an empty graph.
func New[L any]() *Graph[L] { return &Graph[L]{} }

// Add inserts a vertex with the given label and returns its handle.
func (g *Graph[L]) Add(label L) Node {
	n := Node(len(g.labels))
	g.labels = append(g.labels, label)
	g.live = append(g.live, true)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.nodes++
	return n
}

// has reports whether n is a live vertex.
func (g *Graph[L]) has(n Node) bool { return uint(n) < uint(len(g.live)) && g.live[n] }

// adj returns n's row of an adjacency table, or nil when n is not a
// vertex handle.
func adj(rows [][]Node, n Node) []Node {
	if uint(n) < uint(len(rows)) {
		return rows[n]
	}
	return nil
}

// AddEdge inserts the dependency edge u → v (v depends on u). Self-edges
// are rejected.
func (g *Graph[L]) AddEdge(u, v Node) error {
	if u == v {
		return fmt.Errorf("graph: self-dependency on node %d", u)
	}
	if !g.has(u) {
		return fmt.Errorf("graph: unknown node %d", u)
	}
	if !g.has(v) {
		return fmt.Errorf("graph: unknown node %d", v)
	}
	var added bool
	if g.out[u], added = insertSorted(g.out[u], v); added {
		g.in[v], _ = insertSorted(g.in[v], u)
		g.edges++
	}
	return nil
}

// insertSorted adds x to the sorted slice s unless present, reporting
// whether it did. Ascending insertion is a plain append.
func insertSorted(s []Node, x Node) ([]Node, bool) {
	i := len(s)
	if i > 0 && s[i-1] >= x {
		var found bool
		if i, found = slices.BinarySearch(s, x); found {
			return s, false
		}
	}
	return slices.Insert(s, i, x), true
}

// deleteSorted removes x from the sorted slice s, if present.
func deleteSorted(s []Node, x Node) []Node {
	if i, found := slices.BinarySearch(s, x); found {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// HasEdge reports whether the edge u → v exists.
func (g *Graph[L]) HasEdge(u, v Node) bool {
	_, found := slices.BinarySearch(adj(g.out, u), v)
	return found
}

// Label returns the label of n, or the zero value when n is not a live
// vertex.
func (g *Graph[L]) Label(n Node) L {
	if uint(n) < uint(len(g.labels)) {
		return g.labels[n]
	}
	var zero L
	return zero
}

// SetLabel replaces the label of the live vertex n; it does nothing for
// any other handle.
func (g *Graph[L]) SetLabel(n Node, label L) {
	if g.has(n) {
		g.labels[n] = label
	}
}

// Len returns the number of vertices.
func (g *Graph[L]) Len() int { return g.nodes }

// NumEdges returns the number of edges.
func (g *Graph[L]) NumEdges() int { return g.edges }

// Nodes returns the vertices in insertion order.
func (g *Graph[L]) Nodes() []Node {
	out := make([]Node, 0, g.nodes)
	for n, ok := range g.live {
		if ok {
			out = append(out, Node(n))
		}
	}
	return out
}

// Succs returns the direct dependents of n, sorted.
func (g *Graph[L]) Succs(n Node) []Node { return append([]Node{}, adj(g.out, n)...) }

// Preds returns the direct dependencies of n, sorted.
func (g *Graph[L]) Preds(n Node) []Node { return append([]Node{}, adj(g.in, n)...) }

// InDegree returns the number of dependencies of n.
func (g *Graph[L]) InDegree(n Node) int { return len(adj(g.in, n)) }

// OutDegree returns the number of dependents of n.
func (g *Graph[L]) OutDegree(n Node) int { return len(adj(g.out, n)) }

// Remove deletes n and all incident edges.
func (g *Graph[L]) Remove(n Node) {
	if !g.has(n) {
		return
	}
	for _, m := range g.out[n] {
		g.in[m] = deleteSorted(g.in[m], n)
	}
	for _, m := range g.in[n] {
		g.out[m] = deleteSorted(g.out[m], n)
	}
	g.edges -= len(g.out[n]) + len(g.in[n])
	g.out[n], g.in[n] = nil, nil
	var zero L
	g.labels[n] = zero
	g.live[n] = false
	g.nodes--
}

// Clone returns a deep copy sharing labels by value.
func (g *Graph[L]) Clone() *Graph[L] {
	return Induced(g, func(Node) bool { return true }, func(_ Node, l L) L { return l })
}

// CycleError reports one directed cycle found where the caller required a
// DAG. It names the offending vertices — by their labels, not their
// internal node numbers — so a user can see which resources form the
// cycle.
type CycleError struct {
	// Nodes are the vertices of the cycle in order; the edge from the last
	// back to the first closes it.
	Nodes []Node
	// Names are the rendered labels of Nodes, index-aligned.
	Names []string
}

func (e *CycleError) Error() string {
	closed := make([]string, 0, len(e.Names)+1)
	closed = append(closed, e.Names...)
	if len(e.Names) > 0 {
		closed = append(closed, e.Names[0])
	}
	return fmt.Sprintf("graph: dependency cycle: %s", strings.Join(closed, " -> "))
}

// CheckAcyclic returns nil when the graph has no directed cycle, or a
// *CycleError naming one cycle by vertex labels otherwise.
func (g *Graph[L]) CheckAcyclic() error {
	if g.eachTopo(func(Node) {}) {
		return nil
	}
	cycle := g.Cycle()
	if cycle == nil {
		return nil
	}
	names := make([]string, 0, len(cycle))
	for _, c := range cycle {
		names = append(names, fmt.Sprint(g.labels[c]))
	}
	return &CycleError{Nodes: cycle, Names: names}
}

// Cycle returns one directed cycle as a node slice, or nil if acyclic.
func (g *Graph[L]) Cycle() []Node {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(g.live))
	parent := make([]Node, len(g.live))
	var cycle []Node
	var visit func(n Node) bool
	visit = func(n Node) bool {
		color[n] = gray
		for _, m := range g.out[n] {
			switch color[m] {
			case white:
				parent[m] = n
				if visit(m) {
					return true
				}
			case gray:
				cycle = []Node{m}
				for x := n; x != m; x = parent[x] {
					cycle = append(cycle, x)
				}
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}
	for _, n := range g.Nodes() {
		if color[n] == white && visit(n) {
			return cycle
		}
	}
	return nil
}

// indegrees returns every vertex's in-degree, indexed by handle.
func (g *Graph[L]) indegrees() []int {
	indeg := make([]int, len(g.in))
	for n, preds := range g.in {
		indeg[n] = len(preds)
	}
	return indeg
}

// TopoSort returns one topological order (dependencies first). The graph
// must be acyclic.
func (g *Graph[L]) TopoSort() ([]Node, error) {
	indeg := g.indegrees()
	var ready []Node
	for _, n := range g.Nodes() {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range g.out[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != g.Len() {
		return nil, fmt.Errorf("graph: cyclic (sorted %d of %d nodes)", len(order), g.Len())
	}
	return order, nil
}

// Ancestors returns the transitive dependencies of n (excluding n).
func (g *Graph[L]) Ancestors(n Node) map[Node]struct{} { return closure(g.in, n) }

// Descendants returns the transitive dependents of n (excluding n).
func (g *Graph[L]) Descendants(n Node) map[Node]struct{} { return closure(g.out, n) }

// closure returns the vertices reachable from n along rows, excluding n
// unless a cycle leads back to it.
func closure(rows [][]Node, n Node) map[Node]struct{} {
	seen := make(map[Node]struct{})
	stack := []Node{n}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range adj(rows, m) {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// CountLinearizations counts the number of topological orders, stopping at
// limit (returns limit when there are at least that many). This quantifies
// the permutation blow-up of section 4.3.
func (g *Graph[L]) CountLinearizations(limit int) int {
	if limit <= 0 {
		return 0
	}
	count := 0
	g.Linearizations(limit, func([]Node) bool {
		count++
		return true
	})
	return count
}

// Linearizations enumerates topological orders, invoking fn for each until
// fn returns false or limit orders have been produced (limit ≤ 0 means
// unbounded). It reports whether enumeration ran to completion.
func (g *Graph[L]) Linearizations(limit int, fn func(order []Node) bool) bool {
	indeg := g.indegrees()
	nodes := g.Nodes()
	produced := 0
	complete := true
	order := make([]Node, 0, len(nodes))
	var rec func() bool
	rec = func() bool {
		if len(order) == len(nodes) {
			produced++
			if !fn(append([]Node(nil), order...)) {
				complete = false
				return false
			}
			if limit > 0 && produced >= limit {
				complete = false
				return false
			}
			return true
		}
		for _, n := range nodes {
			if indeg[n] != 0 {
				continue
			}
			indeg[n] = -1
			for _, m := range g.out[n] {
				indeg[m]--
			}
			order = append(order, n)
			ok := rec()
			order = order[:len(order)-1]
			indeg[n] = 0
			for _, m := range g.out[n] {
				indeg[m]++
			}
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	return complete
}

// Dot renders the graph in Graphviz format using the provided label
// renderer.
func (g *Graph[L]) Dot(name func(L) string) string {
	var b strings.Builder
	b.WriteString("digraph G {\n")
	nodes := g.Nodes()
	for _, n := range nodes {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n, name(g.labels[n]))
	}
	for _, n := range nodes {
		for _, m := range g.out[n] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n, m)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
