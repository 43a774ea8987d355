package fs

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// genPathString produces a plausible textual path (possibly messy: extra
// slashes, dots) for ParsePath robustness properties.
type genPathString string

// Generate implements quick.Generator.
func (genPathString) Generate(r *rand.Rand, _ int) reflect.Value {
	components := []string{"a", "b", "etc", "usr", "x1", ".", "", "deep"}
	n := r.Intn(5)
	var b strings.Builder
	b.WriteByte('/')
	for i := 0; i < n; i++ {
		b.WriteString(components[r.Intn(len(components))])
		b.WriteByte('/')
	}
	return reflect.ValueOf(genPathString(b.String()))
}

// genPath produces a normalized non-root Path.
type genPath Path

// Generate implements quick.Generator.
func (genPath) Generate(r *rand.Rand, _ int) reflect.Value {
	components := []string{"a", "b", "etc", "usr", "lib", "x"}
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = components[r.Intn(len(components))]
	}
	return reflect.ValueOf(genPath(MakePath(parts...)))
}

func TestQuickParsePathIdempotent(t *testing.T) {
	f := func(s genPathString) bool {
		p := ParsePath(string(s))
		return ParsePath(string(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickParsePathFastPath checks that returning an already-normal
// path unchanged agrees with splitting and joining it, on messy, normal
// and arbitrary strings and on the edge cases of the normality test.
func TestQuickParsePathFastPath(t *testing.T) {
	same := func(s string) bool { return ParsePath(s) == splitJoin(s) }
	for _, s := range []string{"", "/", "//", "/.", "/./", "/a/", "/a//b", "/a/./b", "/a/.",
		"/./a", "a", "a/b", ".", "./a", "/a/..", "/..", "/.a", "/a.", "/a/b"} {
		if !same(s) {
			t.Errorf("ParsePath(%q) = %q, split and join gives %q", s, ParsePath(s), splitJoin(s))
		}
	}
	for _, f := range []any{
		func(s genPathString) bool { return same(string(s)) },
		func(p genPath) bool { return same(string(p)) && isNormal(string(p)) },
		func(b []byte) bool {
			for i := range b {
				b[i] = "/.a"[b[i]%3]
			}
			return same(string(b))
		},
		same,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Error(err)
		}
	}
}

func TestQuickParentJoinInverse(t *testing.T) {
	f := func(gp genPath) bool {
		p := Path(gp)
		return p.Parent().Join(p.Base()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickChildImpliesDescendant(t *testing.T) {
	f := func(gp genPath, component uint8) bool {
		p := Path(gp)
		child := p.Join(string('a' + rune(component%26)))
		return child.IsChildOf(p) && child.IsDescendantOf(p) &&
			child.Parent() == p && child.Depth() == p.Depth()+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAncestorsAreDescendantsInverse(t *testing.T) {
	f := func(gp genPath) bool {
		p := Path(gp)
		for _, a := range p.Ancestors() {
			if !p.IsDescendantOf(a) {
				return false
			}
		}
		return len(p.Ancestors()) == p.Depth()-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// genState wraps a random concrete filesystem.
type genState struct{ s State }

// Generate implements quick.Generator.
func (genState) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genState{s: GenState(r, DefaultGenConfig())})
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(g genState) bool {
		c := g.s.Clone()
		if !c.Equal(g.s) || !g.s.Equal(c) {
			return false
		}
		// Mutating the clone must not affect the original.
		c["/mutation"] = FileContent("x")
		return !g.s.Exists("/mutation")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// genExpr wraps a random FS expression.
type genExpr struct{ e Expr }

// Generate implements quick.Generator.
func (genExpr) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genExpr{e: GenExpr(r, DefaultGenConfig(), 3)})
}

// Determinism of the evaluator itself: evaluating the same expression on
// the same state twice gives identical results (guards against hidden
// state in the evaluator).
func TestQuickEvalDeterministic(t *testing.T) {
	f := func(ge genExpr, g genState) bool {
		out1, ok1 := Eval(ge.e, g.s)
		out2, ok2 := Eval(ge.e, g.s)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || out1.Equal(out2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Sequencing is associative: (e1;e2);e3 ≡ e1;(e2;e3).
func TestQuickSeqAssociative(t *testing.T) {
	f := func(a, b, c genExpr, g genState) bool {
		lhs := Seq{Seq{a.e, b.e}, c.e}
		rhs := Seq{a.e, Seq{b.e, c.e}}
		return EquivOn(lhs, rhs, g.s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Id is a left and right identity of sequencing.
func TestQuickSeqIdentity(t *testing.T) {
	f := func(a genExpr, g genState) bool {
		return EquivOn(Seq{Id{}, a.e}, a.e, g.s) &&
			EquivOn(Seq{a.e, Id{}}, a.e, g.s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Dom is monotone under sequencing and covers both sides.
func TestQuickDomCoversSeq(t *testing.T) {
	f := func(a, b genExpr) bool {
		d := Dom(Seq{a.e, b.e})
		for p := range Dom(a.e) {
			if !d.Has(p) {
				return false
			}
		}
		for p := range Dom(b.e) {
			if !d.Has(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
