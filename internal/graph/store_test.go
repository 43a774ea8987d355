package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapModel is the reference the slice-backed store is checked against:
// the plainest possible graph, maps of edge sets keyed by handle.
type mapModel struct {
	labels map[Node]int
	out    map[Node]map[Node]bool
	in     map[Node]map[Node]bool
	next   Node
}

func newModel() *mapModel {
	return &mapModel{labels: map[Node]int{}, out: map[Node]map[Node]bool{}, in: map[Node]map[Node]bool{}}
}

func (m *mapModel) add(label int) Node {
	n := m.next
	m.next++
	m.labels[n] = label
	m.out[n] = map[Node]bool{}
	m.in[n] = map[Node]bool{}
	return n
}

// addEdge reports whether the store must accept the edge.
func (m *mapModel) addEdge(u, v Node) bool {
	_, uok := m.labels[u]
	_, vok := m.labels[v]
	if u == v || !uok || !vok {
		return false
	}
	m.out[u][v] = true
	m.in[v][u] = true
	return true
}

func (m *mapModel) remove(n Node) {
	for s := range m.out[n] {
		delete(m.in[s], n)
	}
	for p := range m.in[n] {
		delete(m.out[p], n)
	}
	delete(m.out, n)
	delete(m.in, n)
	delete(m.labels, n)
}

func (m *mapModel) induced(keep func(Node) bool, label func(int) int) *mapModel {
	c := newModel()
	c.next = m.next
	for n, l := range m.labels {
		if keep(n) {
			c.labels[n] = label(l)
			c.out[n] = map[Node]bool{}
			c.in[n] = map[Node]bool{}
		}
	}
	for u := range c.labels {
		for v := range m.out[u] {
			if _, ok := c.labels[v]; ok {
				c.out[u][v] = true
				c.in[v][u] = true
			}
		}
	}
	return c
}

func (m *mapModel) clone() *mapModel {
	return m.induced(func(Node) bool { return true }, func(l int) int { return l })
}

func sortedSet(s map[Node]bool) []Node {
	out := []Node{}
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// acyclic reports whether the model has no directed cycle.
func (m *mapModel) acyclic() bool {
	state := map[Node]int{}
	var visit func(Node) bool
	visit = func(n Node) bool {
		state[n] = 1
		for s := range m.out[n] {
			if state[s] == 1 || state[s] == 0 && !visit(s) {
				return false
			}
		}
		state[n] = 2
		return true
	}
	for n := range m.labels {
		if state[n] == 0 && !visit(n) {
			return false
		}
	}
	return true
}

// ancestors returns n's transitive dependencies.
func (m *mapModel) ancestors(n Node) map[Node]bool {
	seen := map[Node]bool{}
	stack := []Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range m.in[x] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// checkAgainst compares every read path of g with the model.
func checkAgainst(t *testing.T, step string, g *Graph[int], m *mapModel) {
	t.Helper()
	var nodes []Node
	edges := 0
	for n := Node(0); n < m.next; n++ {
		if _, ok := m.labels[n]; ok {
			nodes = append(nodes, n)
			edges += len(m.out[n])
		}
	}
	if got := g.Nodes(); !reflect.DeepEqual(got, nodes) && len(got)+len(nodes) > 0 {
		t.Fatalf("%s: Nodes = %v, want %v", step, got, nodes)
	}
	if g.Len() != len(nodes) || g.NumEdges() != edges || g.Cap() != int(m.next) {
		t.Fatalf("%s: Len/NumEdges/Cap = %d/%d/%d, want %d/%d/%d",
			step, g.Len(), g.NumEdges(), g.Cap(), len(nodes), edges, m.next)
	}
	for n := Node(-1); n <= m.next; n++ {
		if got, want := g.Succs(n), sortedSet(m.out[n]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Succs(%d) = %v, want %v", step, n, got, want)
		}
		if got, want := g.Preds(n), sortedSet(m.in[n]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Preds(%d) = %v, want %v", step, n, got, want)
		}
		if g.OutDegree(n) != len(m.out[n]) || g.InDegree(n) != len(m.in[n]) {
			t.Fatalf("%s: degrees of %d = %d/%d, want %d/%d",
				step, n, g.OutDegree(n), g.InDegree(n), len(m.out[n]), len(m.in[n]))
		}
		if got, want := g.Label(n), m.labels[n]; got != want {
			t.Fatalf("%s: Label(%d) = %d, want %d", step, n, got, want)
		}
		for v := Node(-1); v <= m.next; v++ {
			if g.HasEdge(n, v) != m.out[n][v] {
				t.Fatalf("%s: HasEdge(%d, %d) = %v", step, n, v, !m.out[n][v])
			}
		}
	}
	r, err := g.Reach()
	if acyclic := m.acyclic(); (err == nil) != acyclic {
		t.Fatalf("%s: Reach error %v on a graph whose acyclicity is %v", step, err, acyclic)
	}
	if err != nil {
		return
	}
	for _, v := range nodes {
		anc := m.ancestors(v)
		for u := Node(0); u < m.next; u++ {
			if r.IsAncestor(u, v) != anc[u] {
				t.Fatalf("%s: IsAncestor(%d, %d) = %v", step, u, v, !anc[u])
			}
		}
	}
}

// edgeBatch picks one source and a run of targets in ascending,
// descending or shuffled order, with repeats, so the store sees its
// append path, its binary-search insert path and duplicate edges.
func edgeBatch(r *rand.Rand, next Node) (Node, []Node) {
	u := Node(r.Intn(int(next)+1)) - 1 // includes -1 and next: unknown handles
	var vs []Node
	for i := 0; i < 1+r.Intn(6); i++ {
		v := u + 1 + Node(r.Intn(8))
		if r.Intn(12) == 0 {
			v = Node(r.Intn(int(next) + 1)) // occasionally backward: cycles, self-edges
		}
		vs = append(vs, v)
	}
	switch r.Intn(3) {
	case 0:
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	case 1:
		sort.Slice(vs, func(i, j int) bool { return vs[i] > vs[j] })
	}
	if r.Intn(3) == 0 {
		vs = append(vs, vs[r.Intn(len(vs))])
	}
	return u, vs
}

// TestStoreMatchesMapModel runs random sequences of Add, AddEdge, Remove,
// Clone and Induced against the slice-backed store and a map-based model,
// comparing every read path after each step.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, m := New[int](), newModel()
		for step := 0; step < 60; step++ {
			var what string
			switch op := r.Intn(10); {
			case op < 3 || m.next == 0:
				what = "Add"
				l := r.Intn(1000) + 1
				if g.Add(l) != m.add(l) {
					t.Fatalf("seed %d step %d: Add issued a different handle", seed, step)
				}
			case op < 7:
				what = "AddEdge"
				u, vs := edgeBatch(r, m.next)
				for _, v := range vs {
					if err := g.AddEdge(u, v); (err == nil) != m.addEdge(u, v) {
						t.Fatalf("seed %d step %d: AddEdge(%d, %d) error %v", seed, step, u, v, err)
					}
				}
			case op < 8:
				what = "Remove"
				n := Node(r.Intn(int(m.next)))
				g.Remove(n)
				m.remove(n)
			case op < 9:
				// Mutating a clone leaves the original intact, and the
				// clone goes on as the graph under test.
				what = "Clone"
				c, cm := g.Clone(), m.clone()
				for i := 0; i < 3; i++ {
					u, vs := edgeBatch(r, cm.next)
					for _, v := range vs {
						c.AddEdge(u, v)
						cm.addEdge(u, v)
					}
					n := Node(r.Intn(int(cm.next)))
					c.Remove(n)
					cm.remove(n)
				}
				checkAgainst(t, "original after Clone", g, m)
				g, m = c, cm
			default:
				what = "Induced"
				drop := map[Node]bool{}
				for n := Node(0); n < m.next; n++ {
					drop[n] = r.Intn(4) == 0
				}
				keep := func(n Node) bool { return !drop[n] }
				g = Induced(g, keep, func(_ Node, l int) int { return l + 1 })
				m = m.induced(keep, func(l int) int { return l + 1 })
			}
			checkAgainst(t, what, g, m)
		}
	}
}
