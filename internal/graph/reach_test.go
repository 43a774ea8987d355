package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBitsNext(t *testing.T) {
	b := NewBits(200)
	for _, n := range []Node{0, 63, 64, 130, 199} {
		b.Set(n)
	}
	b.Clear(130)
	var got []Node
	for n := b.Next(0); n >= 0; n = b.Next(n + 1) {
		got = append(got, n)
	}
	if want := []Node{0, 63, 64, 199}; !reflect.DeepEqual(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	if b.Next(200) != -1 || b.Next(65) != 199 || !b.Has(63) || b.Has(130) {
		t.Fatal("Next/Has disagree with the members")
	}
}

// randomDAG returns a graph with forward edges in insertion order, so it
// is acyclic, with some vertices removed to leave gaps in the handles.
func randomDAG(r *rand.Rand) *Graph[int] {
	g := New[int]()
	n := 2 + r.Intn(40)
	for i := 0; i < n; i++ {
		g.Add(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(6) == 0 {
				g.AddEdge(Node(i), Node(j))
			}
		}
	}
	for i := 0; i < n/5; i++ {
		g.Remove(Node(r.Intn(n)))
	}
	return g
}

// TestReachMatchesAncestors: the bitset rows equal the map-based ancestor
// sets, and stay exact for the survivors after removing vertices without
// dependents.
func TestReachMatchesAncestors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(r)
		reach, err := g.Reach()
		if err != nil {
			t.Fatal(err)
		}
		for removals := 0; ; removals++ {
			for _, v := range g.Nodes() {
				anc := g.Ancestors(v)
				for _, u := range g.Nodes() {
					if _, want := anc[u]; reach.IsAncestor(u, v) != want {
						t.Fatalf("trial %d after %d removals: IsAncestor(%d, %d) = %v, want %v",
							trial, removals, u, v, !want, want)
					}
				}
			}
			var sink Node = -1
			for _, v := range g.Nodes() {
				if g.OutDegree(v) == 0 {
					sink = v
					break
				}
			}
			if sink < 0 {
				break
			}
			g.Remove(sink)
		}
	}
	g, a, _, _, d := diamond()
	g.AddEdge(d, a)
	if _, err := g.Reach(); err == nil {
		t.Fatal("Reach of a cyclic graph succeeded")
	}
}

// TestInducedMatchesRemove: the induced subgraph equals the graph left by
// removing every rejected vertex one at a time, handles included.
func TestInducedMatchesRemove(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(r)
		drop := map[Node]bool{}
		for _, v := range g.Nodes() {
			if r.Intn(3) == 0 {
				drop[v] = true
			}
		}
		got := Induced(g, func(n Node) bool { return !drop[n] }, func(n Node, l int) int { return 10 * l })
		want := g.Clone()
		for v := range drop {
			want.Remove(v)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
			t.Fatalf("trial %d: nodes %v, want %v", trial, got.Nodes(), want.Nodes())
		}
		for _, v := range want.Nodes() {
			if got.Label(v) != 10*want.Label(v) {
				t.Fatalf("trial %d: label of %d = %d, want %d", trial, v, got.Label(v), 10*want.Label(v))
			}
			if !reflect.DeepEqual(got.Succs(v), want.Succs(v)) || !reflect.DeepEqual(got.Preds(v), want.Preds(v)) {
				t.Fatalf("trial %d: edges of %d differ", trial, v)
			}
			var preds []Node
			got.EachPred(v, func(p Node) { preds = append(preds, p) })
			if len(preds) != got.InDegree(v) {
				t.Fatalf("trial %d: EachPred visited %d of %d dependencies", trial, len(preds), got.InDegree(v))
			}
		}
		if got.Cap() != g.Cap() {
			t.Fatalf("trial %d: Cap %d, want %d", trial, got.Cap(), g.Cap())
		}
	}
}
