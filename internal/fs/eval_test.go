package fs

import (
	"math/rand"
	"testing"
)

func mustEval(t *testing.T, e Expr, s State) State {
	t.Helper()
	out, ok := Eval(e, s)
	if !ok {
		t.Fatalf("Eval(%s, %s) errored, want success", String(e), StateString(s))
	}
	return out
}

func mustErr(t *testing.T, e Expr, s State) {
	t.Helper()
	if out, ok := Eval(e, s); ok {
		t.Fatalf("Eval(%s, %s) = %s, want error", String(e), StateString(s), StateString(out))
	}
}

func TestMkdir(t *testing.T) {
	s := NewState()
	out := mustEval(t, Mkdir{"/a"}, s)
	if !out.IsDir("/a") {
		t.Error("/a not created")
	}
	// Parent must be a directory.
	mustErr(t, Mkdir{"/a/b"}, NewState())
	out2 := mustEval(t, Mkdir{"/a/b"}, out)
	if !out2.IsDir("/a/b") {
		t.Error("/a/b not created")
	}
	// Target must not exist.
	mustErr(t, Mkdir{"/a"}, out)
	// Parent that is a file.
	s2 := State{"/a": FileContent("x")}
	mustErr(t, Mkdir{"/a/b"}, s2)
	// Root cannot be created.
	mustErr(t, Mkdir{Root}, NewState())
}

func TestCreat(t *testing.T) {
	out := mustEval(t, Creat{"/f", "hello"}, NewState())
	if !out.IsFile("/f") || out["/f"].Data != "hello" {
		t.Errorf("creat result: %s", StateString(out))
	}
	mustErr(t, Creat{"/f", "x"}, out)          // exists
	mustErr(t, Creat{"/d/f", "x"}, NewState()) // parent missing
	mustErr(t, Creat{"/f/g", "x"}, out)        // parent is a file
	mustErr(t, Creat{Root, "x"}, NewState())   // root
	_ = mustEval(t, Seq{Mkdir{"/d"}, Creat{"/d/f", "x"}}, NewState())
}

func TestRm(t *testing.T) {
	s := State{"/f": FileContent("x"), "/d": DirContent(), "/d/g": FileContent("y")}
	out := mustEval(t, Rm{"/f"}, s)
	if out.Exists("/f") {
		t.Error("/f still present")
	}
	// Non-empty directory cannot be removed.
	mustErr(t, Rm{"/d"}, s)
	// Empty directory can.
	out2 := mustEval(t, Seq{Rm{"/d/g"}, Rm{"/d"}}, s)
	if out2.Exists("/d") {
		t.Error("/d still present")
	}
	mustErr(t, Rm{"/missing"}, s)
	mustErr(t, Rm{Root}, s)
}

func TestCp(t *testing.T) {
	s := State{"/src": FileContent("data"), "/d": DirContent()}
	out := mustEval(t, Cp{"/src", "/d/dst"}, s)
	if got := out["/d/dst"]; got != FileContent("data") {
		t.Errorf("cp copied %v", got)
	}
	mustErr(t, Cp{"/missing", "/d/dst"}, s) // src missing
	mustErr(t, Cp{"/d", "/d/dst"}, s)       // src is a dir
	mustErr(t, Cp{"/src", "/nodir/dst"}, s) // dst parent missing
	s2 := s.Clone()
	s2["/d/dst"] = FileContent("old")
	mustErr(t, Cp{"/src", "/d/dst"}, s2) // dst exists
}

func TestSeqShortCircuit(t *testing.T) {
	mustErr(t, Seq{Err{}, Mkdir{"/a"}}, NewState())
	out := mustEval(t, Seq{Id{}, Mkdir{"/a"}}, NewState())
	if !out.IsDir("/a") {
		t.Error("seq did not apply second expression")
	}
}

func TestIf(t *testing.T) {
	s := State{"/a": DirContent()}
	out := mustEval(t, If{IsDir{"/a"}, Creat{"/a/f", "x"}, Err{}}, s)
	if !out.IsFile("/a/f") {
		t.Error("then-branch not taken")
	}
	mustErr(t, If{IsDir{"/missing"}, Id{}, Err{}}, s)
}

func TestPredicates(t *testing.T) {
	s := State{
		"/f":   FileContent("x"),
		"/d":   DirContent(),
		"/e":   DirContent(),
		"/e/c": FileContent("y"),
	}
	cases := []struct {
		a    Pred
		want bool
	}{
		{True{}, true},
		{False{}, false},
		{IsFile{"/f"}, true},
		{IsFile{"/d"}, false},
		{IsDir{"/d"}, true},
		{IsDir{"/f"}, false},
		{IsDir{Root}, true},
		{IsEmptyDir{"/d"}, true},
		{IsEmptyDir{"/e"}, false},
		{IsEmptyDir{"/f"}, false},
		{IsNone{"/missing"}, true},
		{IsNone{"/f"}, false},
		{IsNone{Root}, false},
		{Not{IsFile{"/f"}}, false},
		{And{IsFile{"/f"}, IsDir{"/d"}}, true},
		{And{IsFile{"/f"}, IsDir{"/f"}}, false},
		{Or{IsFile{"/d"}, IsDir{"/d"}}, true},
		{Or{IsFile{"/d"}, IsDir{"/f"}}, false},
	}
	for _, c := range cases {
		if got := EvalPred(c.a, s); got != c.want {
			t.Errorf("EvalPred(%s) = %v, want %v", PredString(c.a), got, c.want)
		}
	}
}

func TestEvalDoesNotMutateInput(t *testing.T) {
	s := State{"/a": DirContent()}
	_, _ = Eval(Seq{Creat{"/a/f", "x"}, Rm{"/a/f"}}, s)
	if len(s) != 1 || !s.IsDir("/a") {
		t.Errorf("input state mutated: %s", StateString(s))
	}
}

func TestMkdirIfMissingIdempotent(t *testing.T) {
	e := MkdirIfMissing("/a")
	out1 := mustEval(t, e, NewState())
	out2 := mustEval(t, e, out1)
	if !out1.Equal(out2) {
		t.Error("guarded mkdir not idempotent")
	}
	// On a file it is a silent no-op (the guard fails only for dirs); the
	// inner mkdir errors because the path exists.
	s := State{"/a": FileContent("x")}
	mustErr(t, e, s)
}

// The paper's example equivalence (section 4.4):
//
//	mkdir(p); if (dir?(p)) id else err  ≡  mkdir(p)
func TestPaperEquivalenceExample(t *testing.T) {
	lhs := Seq{Mkdir{"/a/b"}, If{IsDir{"/a/b"}, Id{}, Err{}}}
	rhs := Mkdir{"/a/b"}
	r := rand.New(rand.NewSource(1))
	cfg := DefaultGenConfig()
	for i := 0; i < 500; i++ {
		s := GenState(r, cfg)
		if !EquivOn(lhs, rhs, s) {
			t.Fatalf("inequivalent on %s", StateString(s))
		}
	}
}

// Well-formedness is preserved by successful evaluation from well-formed
// inputs: mkdir/creat check the parent, rm only removes leaves, cp checks
// the destination parent.
func TestEvalPreservesWellFormedness(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := DefaultGenConfig()
	for i := 0; i < 2000; i++ {
		s := GenWellFormedState(r, cfg)
		if !s.IsWellFormed() {
			t.Fatalf("generator produced ill-formed state %s", StateString(s))
		}
		e := GenExpr(r, cfg, 4)
		out, ok := Eval(e, s)
		if ok && !out.IsWellFormed() {
			t.Fatalf("e=%s broke well-formedness: in=%s out=%s",
				String(e), StateString(s), StateString(out))
		}
	}
}

// AddDom accumulates the same set as the union of each expression's Dom.
func TestAddDom(t *testing.T) {
	exprs := []Expr{Mkdir{"/a/b"}, Rm{"/c"}, If{IsEmptyDir{"/d"}, Creat{"/d/f", "x"}, Err{}}, Cp{"/s", "/a/u"}}
	want, got := make(PathSet), make(PathSet)
	for _, e := range exprs {
		want.AddAll(Dom(e))
		got.AddDom(e)
	}
	if len(got) != len(want) {
		t.Fatalf("AddDom union %v, want %v", got.Sorted(), want.Sorted())
	}
	for p := range want {
		if !got.Has(p) {
			t.Errorf("AddDom union misses %q", p)
		}
	}
}

func TestDom(t *testing.T) {
	e := SeqAll(
		Mkdir{"/a/b"},
		Rm{"/c"},
		If{IsEmptyDir{"/d"}, Id{}, Err{}},
		Cp{"/s", "/t/u"},
	)
	d := Dom(e)
	for _, p := range []Path{
		"/a", "/a/b", // mkdir + parent
		"/c", Path("/c").FreshChild(), // rm + fresh child
		"/d", Path("/d").FreshChild(), // emptydir + fresh child
		"/s", "/t", "/t/u", // cp
	} {
		if !d.Has(p) {
			t.Errorf("Dom missing %q; got %v", p, d.Sorted())
		}
	}
}

func TestSizeAndStrings(t *testing.T) {
	e := Seq{Mkdir{"/a"}, If{IsDir{"/a"}, Creat{"/a/f", "x"}, Err{}}}
	if Size(e) < 4 {
		t.Errorf("Size = %d", Size(e))
	}
	if got := String(e); got == "" {
		t.Error("empty String")
	}
	if got := PredString(AndAll(IsDir{"/a"}, Not{IsFile{"/b"}}, True{})); got == "" {
		t.Error("empty PredString")
	}
	if got := String(SeqAll()); got != "id" {
		t.Errorf("SeqAll() = %s", got)
	}
	if PredString(OrAll()) != "false" || PredString(AndAll()) != "true" {
		t.Error("empty folds wrong")
	}
}

func TestContents(t *testing.T) {
	e := SeqAll(Creat{"/a", "x"}, If{True{}, Creat{"/b", "y"}, Creat{"/c", "x"}})
	got := Contents(e)
	if len(got) != 2 {
		t.Errorf("Contents = %v", got)
	}
	for _, want := range []string{"x", "y"} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing content %q", want)
		}
	}
}
