package sym

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
)

func TestVocabDigest(t *testing.T) {
	e := fs.Creat{Path: "/a/f", Content: "x"}
	d1 := NewVocab(fs.Dom(e), e).Digest()
	d2 := NewVocab(fs.Dom(e), e).Digest()
	if d1 != d2 {
		t.Error("digest not deterministic")
	}
	dom := fs.Dom(e)
	dom.Add("/extra")
	if NewVocab(dom, e).Digest() == d1 {
		t.Error("digest ignores the path domain")
	}
	if NewVocabWithLiterals(fs.Dom(e), []string{"zzz"}, e).Digest() == d1 {
		t.Error("digest ignores content literals")
	}
}

// TestSessionEquivMatchesFresh is the verdict-equivalence gate for the
// session layer: for random expression pairs, a shared session over the
// union vocabulary must return exactly the verdicts of the fresh-solver
// Equiv path (which uses the minimal per-query vocabulary), and the same
// canonical counterexample byte for byte: the witness is lex-minimal over
// the asserted formula, so it must not depend on the search trajectory a
// warm session takes. Counterexamples from both paths are already
// replay-validated inside canonicalCounterexample.
func TestSessionEquivMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := fs.DefaultGenConfig()
	// A pool of expressions; the session vocabulary spans all of them, the
	// way core.checkDeterminism builds one vocabulary per manifest.
	pool := make([]fs.Expr, 12)
	dom := fs.NewPathSet()
	for i := range pool {
		pool[i] = fs.GenExpr(r, cfg, 3)
		dom.AddAll(fs.Dom(pool[i]))
	}
	sess := NewSession(NewVocab(dom, pool...))
	opts := Options{}
	queries := 0
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			e1, e2 := pool[i], pool[j]
			gotEq, gotCex, gotErr := sess.Commutes(e1, e2, opts)
			wantEq, wantCex, wantErr := Commutes(e1, e2, opts)
			if gotEq != wantEq || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("pair (%d,%d): session=(%v,%v) fresh=(%v,%v)\ne1=%s\ne2=%s",
					i, j, gotEq, gotErr, wantEq, wantErr, fs.String(e1), fs.String(e2))
			}
			if got, want := witnessString(gotCex), witnessString(wantCex); got != want {
				t.Fatalf("pair (%d,%d): counterexample differs\nsession:\n%s\nfresh:\n%s\ne1=%s\ne2=%s",
					i, j, got, want, fs.String(e1), fs.String(e2))
			}
			queries++
		}
	}
	st := sess.Stats()
	if st.Queries != int64(queries) {
		t.Errorf("Queries = %d, want %d", st.Queries, queries)
	}
	// Each pool expression occurs in many pairs; the apply memo must have
	// absorbed the repeats (2 fresh applications per query at most, and the
	// per-side Seq composites repeat whenever an expression reappears).
	if st.ApplyHits == 0 {
		t.Error("apply memo never hit across overlapping pairs")
	}
}

// witnessString renders a counterexample for byte-identity comparison
// ("" when there is none).
func witnessString(cex *Counterexample) string {
	if cex == nil {
		return ""
	}
	return cex.String()
}

// TestSessionIdempotentMatchesFresh covers the second query shape the
// checker issues, with the same verdict and canonical-witness contract.
func TestSessionIdempotentMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cfg := fs.DefaultGenConfig()
	pool := make([]fs.Expr, 16)
	dom := fs.NewPathSet()
	for i := range pool {
		pool[i] = fs.GenExpr(r, cfg, 3)
		dom.AddAll(fs.Dom(pool[i]))
	}
	sess := NewSession(NewVocab(dom, pool...))
	for i, e := range pool {
		gotEq, gotCex, gotErr := sess.Idempotent(e, Options{})
		wantEq, wantCex, wantErr := Idempotent(e, Options{})
		if gotEq != wantEq || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("expr %d: session=(%v,%v) fresh=(%v,%v)\ne=%s",
				i, gotEq, gotErr, wantEq, wantErr, fs.String(e))
		}
		if got, want := witnessString(gotCex), witnessString(wantCex); got != want {
			t.Fatalf("expr %d: counterexample differs\nsession:\n%s\nfresh:\n%s\ne=%s",
				i, got, want, fs.String(e))
		}
	}
}

// TestSessionCounterexampleReplay: session counterexamples must concretely
// distinguish the two expressions on the decoded input.
func TestSessionCounterexampleReplay(t *testing.T) {
	e1 := fs.Expr(fs.Creat{Path: "/a/f", Content: "x"})
	e2 := fs.Expr(fs.Rm{Path: "/a/f"})
	dom := fs.Dom(e1)
	dom.AddAll(fs.Dom(e2))
	sess := NewSession(NewVocab(dom, e1, e2))
	eq, cex, err := sess.Commutes(e1, e2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq || cex == nil {
		t.Fatal("creat/rm on the same path must not commute")
	}
	out1, ok1 := fs.Eval(fs.Seq{E1: e1, E2: e2}, cex.Input)
	out2, ok2 := fs.Eval(fs.Seq{E1: e2, E2: e1}, cex.Input)
	if ok1 == ok2 && (!ok1 || out1.Equal(out2)) {
		t.Fatal("counterexample does not distinguish the orders")
	}
	// The session stays usable after a Sat query.
	eq, _, err = sess.Commutes(e1, e1, Options{})
	if err != nil || !eq {
		t.Fatalf("e1 must commute with itself after a prior counterexample: %v %v", eq, err)
	}
}

// TestSessionLearntRetention: learnt clauses accumulate across session
// queries.
func TestSessionLearntRetention(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cfg := fs.DefaultGenConfig()
	pool := make([]fs.Expr, 10)
	dom := fs.NewPathSet()
	for i := range pool {
		pool[i] = fs.GenExpr(r, cfg, 4)
		dom.AddAll(fs.Dom(pool[i]))
	}
	sess := NewSession(NewVocab(dom, pool...))
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			if _, _, err := sess.Commutes(pool[i], pool[j], Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sess.Stats().LearntRetained == 0 {
		t.Error("no learnt clauses retained over the query stream")
	}
}

// TestSessionStoppedQueryLeavesNoTrace: a query stopped before its
// encoding returns ErrBudget and memoizes nothing, so the next query on
// the same session gets the fresh solver's verdict and counterexample.
func TestSessionStoppedQueryLeavesNoTrace(t *testing.T) {
	e1 := fs.Seq{E1: fs.Mkdir{Path: "/a"}, E2: fs.Creat{Path: "/a/f", Content: "x"}}
	e2 := fs.Creat{Path: "/a/f", Content: "x"}
	dom := fs.Dom(e1)
	dom.AddAll(fs.Dom(e2))
	sess := NewSession(NewVocab(dom, e1, e2))
	stop := new(atomic.Bool)
	stop.Store(true)
	if _, _, err := sess.Equiv(e1, e2, Options{Stop: stop}); err != ErrBudget {
		t.Fatalf("stopped query: err = %v, want ErrBudget", err)
	}
	if _, _, err := sess.Equiv(e1, e2, Options{Deadline: time.Now().Add(-time.Second)}); err != ErrBudget {
		t.Fatalf("query past its deadline: err = %v, want ErrBudget", err)
	}
	eq, cex, err := sess.Equiv(e1, e2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantEq, wantCex, err := Equiv(e1, e2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq != wantEq || eq {
		t.Fatalf("session verdict %v, fresh %v; want both false", eq, wantEq)
	}
	if cex.String() != wantCex.String() {
		t.Fatalf("session counterexample\n%s\nfresh\n%s", cex, wantCex)
	}
}
