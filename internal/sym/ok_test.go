package sym

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/smt"
)

// creats returns Creat steps for the given files, in order.
func creats(files []fs.Path) []fs.Expr {
	parts := make([]fs.Expr, len(files))
	for i, p := range files {
		parts[i] = fs.Creat{Path: p, Content: "x"}
	}
	return parts
}

// creatGuards returns the guards of creating each file under /d from in,
// where no file has been created yet.
func creatGuards(en *Encoder, in *State, files []fs.Path) []smt.T {
	var gs []smt.T
	for _, p := range files {
		gs = append(gs, en.isDir(in, "/d"), en.isNone(in, p))
	}
	return gs
}

// TestOkChainBuildsNoConjunctionPerStep: a chain of n Creats builds its
// guards and nothing else, so going from 100 to 200 steps adds exactly
// the guard terms of the 100 extra steps. A step-by-step conjunction of
// the ok formula would add one And gate per step on top.
func TestOkChainBuildsNoConjunctionPerStep(t *testing.T) {
	v, files := chunkedVocab(200)
	applied := func(n int) int {
		en := NewEncoder(v)
		in := en.FreshInputState("in")
		before := en.S.NumTerms()
		en.Apply(fs.SeqAll(creats(files[:n])...), in)
		return en.S.NumTerms() - before
	}
	guards := func(n int) int {
		en := NewEncoder(v)
		in := en.FreshInputState("in")
		before := en.S.NumTerms()
		creatGuards(en, in, files[:n])
		return en.S.NumTerms() - before
	}
	if got, want := applied(200)-applied(100), guards(200)-guards(100); got != want {
		t.Errorf("100 more Creats built %d terms, want their %d guard terms", got, want)
	}
}

// TestOkIsOneConjunction: observing a chain's ok formula builds one And
// over the chain's guards, the same term as conjoining them directly,
// and observing it again builds nothing.
func TestOkIsOneConjunction(t *testing.T) {
	for _, n := range []int{100, 200} {
		v, files := chunkedVocab(n)
		en := NewEncoder(v)
		in := en.FreshInputState("in")
		out := en.Apply(fs.SeqAll(creats(files)...), in)
		before := en.S.NumTerms()
		got := en.Ok(out)
		if built := en.S.NumTerms() - before; built != 1 {
			t.Errorf("n=%d: Ok built %d terms, want 1", n, built)
		}
		if want := en.S.And(creatGuards(en, in, files)...); got != want {
			t.Errorf("n=%d: Ok = %d, want the direct conjunction %d", n, got, want)
		}
		before = en.S.NumTerms()
		if again := en.Ok(out); again != got || en.S.NumTerms() != before {
			t.Errorf("n=%d: second Ok = %d after building %d terms, want %d and none",
				n, again, en.S.NumTerms()-before, got)
		}
	}
}

// TestOkAcrossMerge: an If between two pending lists conjoins each
// branch's list into its side of the Ite, and the guards after the merge
// are conjoined with that Ite.
func TestOkAcrossMerge(t *testing.T) {
	v, f := chunkedVocab(4)
	en := NewEncoder(v)
	in := en.FreshInputState("in")
	e := fs.SeqAll(
		fs.Creat{Path: f[0], Content: "x"},
		fs.If{A: fs.IsFile{Path: f[3]}, Then: fs.Creat{Path: f[1], Content: "x"}, Else: fs.Creat{Path: f[2], Content: "x"}},
		fs.Rm{Path: f[3]},
	)
	got := en.Ok(en.Apply(e, in))
	g := func(files ...fs.Path) []smt.T { return creatGuards(en, in, files) }
	c := en.isFile(in, f[3])
	// The Rm runs after one of f1, f2 was created; f3 is unchanged.
	rm := en.S.Or(en.isFile(in, f[3]), en.isEmptyDir(in, f[3]))
	want := en.S.And(
		en.S.Ite(c, en.S.And(g(f[0], f[1])...), en.S.And(g(f[0], f[2])...)),
		rm)
	if got != want {
		t.Errorf("Ok = %d, want %d", got, want)
	}
}

// TestOkErrDropsPending: Err makes the ok formula false whatever guards
// were pending, and guards after it stay false; inside a branch the false
// side folds into the merge.
func TestOkErrDropsPending(t *testing.T) {
	v, f := chunkedVocab(3)
	en := NewEncoder(v)
	in := en.FreshInputState("in")
	st := en.Apply(fs.SeqAll(fs.Creat{Path: f[0], Content: "x"}, fs.Err{}), in)
	if st.base != smt.FalseT || st.pending != nil {
		t.Fatalf("after Err: base %d with pending guards %v, want false and none", st.base, st.pending != nil)
	}
	if ok := en.Ok(en.Apply(fs.Creat{Path: f[1], Content: "x"}, st)); ok != smt.FalseT {
		t.Errorf("Creat after Err: Ok = %d, want false", ok)
	}
	c := en.isFile(in, f[2])
	e := fs.If{A: fs.IsFile{Path: f[2]},
		Then: fs.SeqAll(fs.Creat{Path: f[0], Content: "x"}, fs.Err{}),
		Else: fs.Creat{Path: f[1], Content: "x"}}
	want := en.S.Ite(c, smt.FalseT, en.S.And(creatGuards(en, in, f[1:2])...))
	if got := en.Ok(en.Apply(e, in)); got != want {
		t.Errorf("If with an erring branch: Ok = %d, want %d", got, want)
	}
}
