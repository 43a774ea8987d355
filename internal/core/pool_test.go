package core

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/sym"
)

// TestPoolRetiresSessionAtQueryCap: a pool serving one worker reuses its
// session until that session has answered sym.SessionQueryCap queries,
// then drops it, so the next acquire constructs a fresh one.
func TestPoolRetiresSessionAtQueryCap(t *testing.T) {
	e1 := fs.Seq{E1: fs.Mkdir{Path: "/a"}, E2: fs.Creat{Path: "/a/f", Content: "x"}}
	e2 := fs.Creat{Path: "/a/f", Content: "x"}
	dom := fs.Dom(e1)
	dom.AddAll(fs.Dom(e2))
	p := &sessionPool{vocab: sym.NewVocab(dom, e1, e2)}

	var first *sym.Session
	for i := 0; i <= sym.SessionQueryCap; i++ {
		s, created := p.acquire()
		if wantNew := i == 0 || i == sym.SessionQueryCap; created != wantNew {
			t.Fatalf("query %d: acquire constructed=%v, want %v", i, created, wantNew)
		}
		if i == 0 {
			first = s
		}
		if i == sym.SessionQueryCap && s == first {
			t.Fatal("retired session handed out again")
		}
		if _, _, err := s.Equiv(e1, e2, sym.Options{}); err != nil {
			t.Fatal(err)
		}
		p.release(s)
	}
	if got := first.Stats().Queries; got != sym.SessionQueryCap {
		t.Errorf("first session answered %d queries, want %d", got, sym.SessionQueryCap)
	}
}
