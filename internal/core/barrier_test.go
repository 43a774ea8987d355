package core_test

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// TestFleetEdgesLinear: the class chains of a 10,000-resource fleet, which
// expand to about 18.7 million resource pairs, take at most three internal
// edges per vertex, and the barriers that make it so stay internal: the
// statistics count resources only, and a counterexample names resources
// only.
func TestFleetEdgesLinear(t *testing.T) {
	sys, err := core.Load(benchmarks.Fleet(10000, benchmarks.FleetLocalDep, 1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vertices, edges := core.GraphSize(sys)
	if vertices <= sys.Size() {
		t.Errorf("%d vertices for %d resources, want barriers too", vertices, sys.Size())
	}
	if edges > 3*vertices {
		t.Errorf("%d edges for %d vertices, want at most 3 per vertex", edges, vertices)
	}
	res, err := sys.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("verdict deterministic, want non-deterministic")
	}
	if res.Stats.Resources != 9986 || res.Stats.Eliminated != 9968 {
		t.Errorf("stats count %d resources, %d eliminated; want 9986 and 9968",
			res.Stats.Resources, res.Stats.Eliminated)
	}
	names := sys.ResourceNames()
	slices.Sort(names)
	for _, order := range [][]string{res.Counterexample.Order1, res.Counterexample.Order2} {
		order = slices.Clone(order)
		slices.Sort(order)
		if !slices.Equal(order, names) {
			t.Error("counterexample order is not a permutation of the resources")
		}
	}
}

// TestExportsResourceOnly: the graph a tool sees holds one vertex per
// resource, in declaration order, and no barrier.
func TestExportsResourceOnly(t *testing.T) {
	sys, err := core.Load(benchmarks.Fleet(400, benchmarks.FleetNone, 1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if vertices, _ := core.GraphSize(sys); vertices <= sys.Size() {
		t.Fatalf("%d vertices for %d resources, want barriers too", vertices, sys.Size())
	}
	names := sys.ResourceNames()
	if len(names) != sys.Size() || slices.Contains(names, "") {
		t.Fatalf("ResourceNames = %d names for %d resources", len(names), sys.Size())
	}
	if digests := sys.ResourceDigests(); len(digests) != len(names) {
		t.Errorf("%d resource digests, want %d", len(digests), len(names))
	}
	g := sys.Graph()
	var labels []string
	for _, n := range g.Nodes() {
		labels = append(labels, g.Label(n))
	}
	if !slices.Equal(labels, names) {
		t.Error("Graph's vertices are not the resources in declaration order")
	}
	if n := sys.ExprGraph().Len(); n != len(names) {
		t.Errorf("ExprGraph has %d vertices, want %d", n, len(names))
	}
	dotNodes := regexp.MustCompile(`(?m)^  n\d+ \[label=(.*)\];$`).FindAllStringSubmatch(sys.Dot(), -1)
	if len(dotNodes) != len(names) {
		t.Fatalf("Dot has %d vertices, want %d", len(dotNodes), len(names))
	}
	for i, m := range dotNodes {
		if m[1] != fmt.Sprintf("%q", names[i]) {
			t.Errorf("Dot vertex %d is %s, want %q", i, m[1], names[i])
		}
	}
}

// TestClassChainCycle: a cycle closed through two class chains, or by a
// class ordered before itself, is a *CycleError that names resources only.
func TestClassChainCycle(t *testing.T) {
	const classes = `
class a {
  file { '/a1': content => 'x' }
  file { '/a2': content => 'y' }
}
class b {
  file { '/b1': content => 'x' }
  file { '/b2': content => 'y' }
}
include a, b
`
	resource := regexp.MustCompile(`^File\[/([ab])[12]\]$`)
	for chain, want := range map[string]int{
		"Class['a'] -> Class['b'] -> Class['a']": 2,
		"Class['a'] -> Class['a']":               1,
	} {
		_, err := core.Load(classes+chain, core.DefaultOptions())
		var ce *core.CycleError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Load returned %v, want a *core.CycleError", chain, err)
		}
		seen := map[string]bool{}
		for _, r := range ce.Resources {
			m := resource.FindStringSubmatch(r)
			if m == nil {
				t.Errorf("%s: cycle entry %q is not a resource of the manifest", chain, r)
				continue
			}
			seen[m[1]] = true
		}
		if len(ce.Resources) < 2 || len(seen) != want {
			t.Errorf("%s: cycle %v, want one through %d class(es)", chain, ce.Resources, want)
		}
	}
}

// TestBarrierAddsNoOrders: a barrier that survives elimination (here the
// one between classes a and b, kept by /b1's two writers) adds no
// linearization, with or without commutativity: the counts are those of
// the graph with an edge per resource pair.
func TestBarrierAddsNoOrders(t *testing.T) {
	const src = `
class a {
  file { '/a1': content => 'x' }
  file { '/a2': content => 'y' }
}
class b {
  file { '/b1': content => 'x' }
  file { '/b2': content => 'y' }
}
include a, b
Class['a'] -> Class['b']
file { 'b1-again': path => '/b1', content => 'x' }
`
	for commut, want := range map[bool]int{true: 2, false: 8} {
		opts := core.DefaultOptions()
		opts.Commutativity = commut
		sys, err := core.Load(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if vertices, _ := core.GraphSize(sys); vertices != sys.Size()+1 {
			t.Fatalf("%d vertices for %d resources, want one barrier", vertices, sys.Size())
		}
		res, err := sys.CheckDeterminism()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic || res.Stats.Eliminated != 1 || res.Stats.Sequences != want {
			t.Errorf("commutativity %v: deterministic %v, %d eliminated, %d sequences; want true, 1, %d",
				commut, res.Deterministic, res.Stats.Eliminated, res.Stats.Sequences, want)
		}
	}
}
