package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/commute"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/puppet"
)

// randomSystem builds a system of n resources with random models over a
// small path pool and random forward dependency edges, so elimination
// runs many rounds with fringe nodes that wake before and after the scan
// position.
func randomSystem(r *rand.Rand, n int) *System {
	// A pool of about n/2 small trees: most pairs touch disjoint paths.
	p := func() fs.Path {
		dir := fs.Path(fmt.Sprint("/p", r.Intn(n/2+1)))
		if r.Intn(2) == 0 {
			return dir
		}
		return dir.Join("f")
	}
	g := graph.New[*node]()
	for i := 0; i < n; i++ {
		var parts []fs.Expr
		for k := 1 + r.Intn(3); k > 0; k-- {
			switch r.Intn(8) {
			case 0, 1, 2:
				parts = append(parts, fs.MkdirIfMissing(p()))
			case 3:
				parts = append(parts, fs.Creat{Path: p(), Content: fmt.Sprint("c", r.Intn(2))})
			case 4, 5:
				parts = append(parts, fs.If{A: fs.IsFile{Path: p()}, Then: fs.Id{}, Else: fs.Err{}})
			case 6:
				parts = append(parts, fs.Rm{Path: p()})
			case 7:
				parts = append(parts, fs.If{A: fs.IsDir{Path: p()}, Then: fs.Id{}, Else: fs.Err{}})
			}
		}
		e := fs.SeqAll(parts...)
		g.Add(&node{res: &puppet.Resource{Type: "exec", Title: fmt.Sprint("r", i)}, expr: e, orig: e, sum: commute.Analyze(e)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				_ = g.AddEdge(graph.Node(i), graph.Node(j))
			}
		}
	}
	return &System{g: g}
}

// TestEliminationMatchesRoundOracleRandom drives the worklist and the
// round-based oracle over random graphs, with syntactic and semantic
// commutativity, at one and eight workers.
func TestEliminationMatchesRoundOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := randomSystem(r, 4+r.Intn(20))
		for _, semantic := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				opts := DefaultOptions()
				opts.SemanticCommute = semantic
				opts.Parallelism = workers
				got, err := RunElimination(s, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunElimination(s, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d semantic=%v workers=%d:\n got %+v\nwant %+v", trial, semantic, workers, got, want)
				}
			}
		}
	}
}
