package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func diamond() (*Graph[string], Node, Node, Node, Node) {
	g := New[string]()
	a := g.Add("a")
	b := g.Add("b")
	c := g.Add("c")
	d := g.Add("d")
	// a → b, a → c, b → d, c → d
	for _, e := range [][2]Node{{a, b}, {a, c}, {b, d}, {c, d}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g, a, b, c, d
}

func TestBasics(t *testing.T) {
	g, a, b, c, d := diamond()
	if g.Len() != 4 || g.NumEdges() != 4 {
		t.Fatalf("Len=%d NumEdges=%d", g.Len(), g.NumEdges())
	}
	if g.Label(a) != "a" {
		t.Error("label")
	}
	g.SetLabel(a, "A")
	if g.Label(a) != "A" {
		t.Error("SetLabel")
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Error("HasEdge")
	}
	if g.InDegree(d) != 2 || g.OutDegree(a) != 2 {
		t.Error("degrees")
	}
	if got := g.Succs(a); !reflect.DeepEqual(got, []Node{b, c}) {
		t.Errorf("Succs = %v", got)
	}
	if got := g.Preds(d); !reflect.DeepEqual(got, []Node{b, c}) {
		t.Errorf("Preds = %v", got)
	}
}

func TestEdgeErrors(t *testing.T) {
	g := New[string]()
	a := g.Add("a")
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-edge accepted")
	}
	if err := g.AddEdge(a, Node(99)); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge(Node(99), a); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestRemove(t *testing.T) {
	g, a, b, c, d := diamond()
	g.Remove(b)
	if g.Len() != 3 {
		t.Fatal("Len after remove")
	}
	if g.HasEdge(a, b) || g.HasEdge(b, d) {
		t.Error("dangling edges")
	}
	if g.InDegree(d) != 1 {
		t.Error("in-degree not updated")
	}
	_ = c
}

func TestClone(t *testing.T) {
	g, a, b, _, _ := diamond()
	c := g.Clone()
	c.Remove(a)
	if g.Len() != 4 || !g.HasEdge(a, b) {
		t.Error("clone aliases original")
	}
}

func TestAcyclic(t *testing.T) {
	g, _, b, c, _ := diamond()
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("diamond reported cyclic: %v", err)
	}
	// Close a cycle b → c → b (c → d → ... no path back; add direct).
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, b); err != nil {
		t.Fatal(err)
	}
	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("cycle not detected")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error text: %v", err)
	}
	cyc := g.Cycle()
	if len(cyc) < 2 {
		t.Fatalf("Cycle() = %v", cyc)
	}
	// The returned nodes must actually form a cycle.
	for i := range cyc {
		if !g.HasEdge(cyc[i], cyc[(i+1)%len(cyc)]) {
			t.Errorf("edge %v → %v missing in reported cycle %v", cyc[i], cyc[(i+1)%len(cyc)], cyc)
		}
	}
}

// TestCycleErrorNamesNodes: the error from CheckAcyclic is a structured
// *CycleError whose Names renders the offending labels in cycle order.
func TestCycleErrorNamesNodes(t *testing.T) {
	g, _, b, c, _ := diamond()
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, b); err != nil {
		t.Fatal(err)
	}
	err := g.CheckAcyclic()
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("CheckAcyclic returned %T, want *CycleError", err)
	}
	if len(ce.Names) != len(ce.Nodes) || len(ce.Names) < 2 {
		t.Fatalf("CycleError names %v nodes %v", ce.Names, ce.Nodes)
	}
	// The labels of the b↔c cycle must appear, and the message must show
	// the cycle closed back on its first node.
	for _, want := range []string{"b", "c"} {
		found := false
		for _, n := range ce.Names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("cycle names %v missing %q", ce.Names, want)
		}
	}
	if !strings.Contains(err.Error(), ce.Names[0]) ||
		!strings.Contains(err.Error(), " -> ") {
		t.Errorf("error text should render the cycle path: %q", err.Error())
	}
}

func TestTopoSort(t *testing.T) {
	g, a, _, _, d := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range g.Nodes() {
		for _, m := range g.Succs(n) {
			if pos[n] >= pos[m] {
				t.Errorf("order violates %v → %v", n, m)
			}
		}
	}
	if order[0] != a || order[3] != d {
		t.Errorf("diamond order: %v", order)
	}
	// Cyclic graph errors.
	g2 := New[string]()
	x := g2.Add("x")
	y := g2.Add("y")
	g2.AddEdge(x, y)
	g2.AddEdge(y, x)
	if _, err := g2.TopoSort(); err == nil {
		t.Error("cyclic TopoSort succeeded")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g, a, b, c, d := diamond()
	anc := g.Ancestors(d)
	if len(anc) != 3 {
		t.Errorf("Ancestors(d) = %v", anc)
	}
	for _, n := range []Node{a, b, c} {
		if _, ok := anc[n]; !ok {
			t.Errorf("missing ancestor %v", n)
		}
	}
	desc := g.Descendants(a)
	if len(desc) != 3 {
		t.Errorf("Descendants(a) = %v", desc)
	}
	if len(g.Ancestors(a)) != 0 || len(g.Descendants(d)) != 0 {
		t.Error("root/leaf closure not empty")
	}
}

func TestCountLinearizations(t *testing.T) {
	g, _, _, _, _ := diamond()
	if got := g.CountLinearizations(100); got != 2 {
		t.Errorf("diamond has 2 linearizations, got %d", got)
	}
	// n independent nodes have n! orders; check limit clamping.
	g2 := New[int]()
	for i := 0; i < 5; i++ {
		g2.Add(i)
	}
	if got := g2.CountLinearizations(1000); got != 120 {
		t.Errorf("5 free nodes: %d, want 120", got)
	}
	if got := g2.CountLinearizations(7); got != 7 {
		t.Errorf("limit: %d, want 7", got)
	}
	// Empty graph has exactly one (empty) order.
	if got := New[int]().CountLinearizations(10); got != 1 {
		t.Errorf("empty graph: %d, want 1", got)
	}
}

func TestLinearizations(t *testing.T) {
	g, a, b, c, d := diamond()
	var orders [][]Node
	complete := g.Linearizations(0, func(order []Node) bool {
		orders = append(orders, order)
		return true
	})
	if !complete || len(orders) != 2 {
		t.Fatalf("complete=%v n=%d", complete, len(orders))
	}
	for _, o := range orders {
		if o[0] != a || o[3] != d {
			t.Errorf("bad order %v", o)
		}
	}
	if orders[0][1] == orders[1][1] {
		t.Error("orders not distinct")
	}
	_ = b
	_ = c
	// Early stop.
	n := 0
	complete = g.Linearizations(0, func([]Node) bool { n++; return false })
	if complete || n != 1 {
		t.Errorf("early stop: complete=%v n=%d", complete, n)
	}
	// Limit.
	n = 0
	complete = g.Linearizations(1, func([]Node) bool { n++; return true })
	if complete || n != 1 {
		t.Errorf("limit: complete=%v n=%d", complete, n)
	}
}

// Every enumerated linearization respects every edge, on random DAGs.
func TestLinearizationsRespectEdgesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		g := New[int]()
		n := 3 + r.Intn(5)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = g.Add(i)
		}
		// Edges only forward in index order: guaranteed acyclic.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					g.AddEdge(nodes[i], nodes[j])
				}
			}
		}
		count := 0
		g.Linearizations(200, func(order []Node) bool {
			count++
			pos := map[Node]int{}
			for i, x := range order {
				pos[x] = i
			}
			for _, u := range g.Nodes() {
				for _, v := range g.Succs(u) {
					if pos[u] >= pos[v] {
						t.Fatalf("order %v violates %v → %v", order, u, v)
					}
				}
			}
			return true
		})
		if count == 0 {
			t.Fatal("no linearizations for acyclic graph")
		}
		if c := g.CountLinearizations(200); c != count {
			t.Fatalf("CountLinearizations=%d but enumerated %d", c, count)
		}
	}
}

func TestDot(t *testing.T) {
	g, _, _, _, _ := diamond()
	dot := g.Dot(func(s string) string { return s })
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "\"a\"") || !strings.Contains(dot, "->") {
		t.Errorf("dot output: %s", dot)
	}
}
