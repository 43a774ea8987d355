package fs

import (
	"fmt"
	"strings"
)

// PredString renders a predicate in the paper's concrete syntax.
func PredString(a Pred) string {
	var b strings.Builder
	writePred(&b, a, false)
	return b.String()
}

func writePred(b *strings.Builder, a Pred, paren bool) {
	switch a := a.(type) {
	case True:
		b.WriteString("true")
	case False:
		b.WriteString("false")
	case Not:
		b.WriteString("¬")
		writePred(b, a.P, true)
	case And:
		if paren {
			b.WriteByte('(')
		}
		writePred(b, a.L, true)
		b.WriteString(" ∧ ")
		writePred(b, a.R, true)
		if paren {
			b.WriteByte(')')
		}
	case Or:
		if paren {
			b.WriteByte('(')
		}
		writePred(b, a.L, true)
		b.WriteString(" ∨ ")
		writePred(b, a.R, true)
		if paren {
			b.WriteByte(')')
		}
	case IsFile:
		fmt.Fprintf(b, "file?(%s)", a.Path)
	case IsDir:
		fmt.Fprintf(b, "dir?(%s)", a.Path)
	case IsEmptyDir:
		fmt.Fprintf(b, "emptydir?(%s)", a.Path)
	case IsNone:
		fmt.Fprintf(b, "none?(%s)", a.Path)
	default:
		b.WriteString("<unknown-pred>")
	}
}

// String renders an expression in the paper's concrete syntax, on one line.
func String(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case Id:
		b.WriteString("id")
	case Err:
		b.WriteString("err")
	case Mkdir:
		fmt.Fprintf(b, "mkdir(%s)", e.Path)
	case Creat:
		fmt.Fprintf(b, "creat(%s, %q)", e.Path, e.Content)
	case Rm:
		fmt.Fprintf(b, "rm(%s)", e.Path)
	case Cp:
		fmt.Fprintf(b, "cp(%s, %s)", e.Src, e.Dst)
	case Seq:
		writeExpr(b, e.E1)
		b.WriteString("; ")
		writeExpr(b, e.E2)
	case If:
		b.WriteString("if (")
		writePred(b, e.A, false)
		b.WriteString(") {")
		writeExpr(b, e.Then)
		b.WriteString("}")
		if _, isId := e.Else.(Id); !isId {
			b.WriteString(" else {")
			writeExpr(b, e.Else)
			b.WriteString("}")
		}
	default:
		b.WriteString("<unknown-expr>")
	}
}

// StateString renders a concrete filesystem compactly, e.g.
// "{/a=dir, /a/b=file(\"x\")}".
func StateString(s State) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Paths() {
		if i > 0 {
			b.WriteString(", ")
		}
		c := s[p]
		if c.Kind == KindDir {
			fmt.Fprintf(&b, "%s=dir", p)
		} else {
			fmt.Fprintf(&b, "%s=file(%q)", p, c.Data)
		}
	}
	b.WriteByte('}')
	return b.String()
}
