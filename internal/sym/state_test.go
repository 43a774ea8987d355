package sym

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/sat"
)

// chunkedVocab returns a vocabulary of n sibling files under /d, so the
// domain holds n+1 paths plus /d's fresh child.
func chunkedVocab(n int) (*Vocab, []fs.Path) {
	var files []fs.Path
	var parts []fs.Expr
	for i := 0; i < n; i++ {
		p := fs.Path(fmt.Sprintf("/d/f%03d", i))
		files = append(files, p)
		parts = append(parts, fs.Creat{Path: p, Content: "x"})
	}
	e := fs.SeqAll(parts...)
	return NewVocab(fs.Dom(e), e), files
}

func TestStateMergeSharesUnchangedChunks(t *testing.T) {
	v, files := chunkedVocab(3 * stateChunk)
	en := NewEncoder(v)
	in := en.FreshInputState("in")
	// One branch writes the last file: only the chunk holding it differs.
	last := files[len(files)-1]
	e := fs.If{A: fs.IsDir{Path: "/d"}, Then: fs.Creat{Path: last, Content: "x"}, Else: fs.Id{}}
	out := en.Apply(e, in)
	changed := v.PathIndex(last) / stateChunk
	if len(out.chunks) != len(in.chunks) {
		t.Fatalf("%d chunks, want %d", len(out.chunks), len(in.chunks))
	}
	for k := range out.chunks {
		if shared := out.chunks[k] == in.chunks[k]; shared == (k == changed) {
			t.Errorf("chunk %d shared=%v, want %v", k, shared, k != changed)
		}
	}
	if out.Lookup(last).Kind.Same(in.Lookup(last).Kind) {
		t.Error("merged kind of the written path equals the input's")
	}
	// Merging two identical branch states shares every chunk.
	same := en.merge(en.isDir(in, "/d"), out, out)
	for k := range same.chunks {
		if same.chunks[k] != out.chunks[k] {
			t.Errorf("merge of identical states copied chunk %d", k)
		}
	}
}

func TestStateLookupOutsideDomainPanics(t *testing.T) {
	v, _ := chunkedVocab(2)
	st := NewEncoder(v).FreshInputState("in")
	defer func() {
		if recover() == nil {
			t.Error("Lookup of a path outside the domain did not panic")
		}
	}()
	st.Lookup("/elsewhere")
}

// TestStateDomainNotMultipleOfChunk: domains shorter than, equal to and
// just past a chunk boundary round-trip every path through with and
// Lookup, and an update copies exactly one chunk.
func TestStateDomainNotMultipleOfChunk(t *testing.T) {
	for _, n := range []int{1, stateChunk - 3, stateChunk - 2, stateChunk + 5, 2*stateChunk - 2} {
		v, files := chunkedVocab(n)
		en := NewEncoder(v)
		in := en.FreshInputState("in")
		if want := (len(v.Paths) + stateChunk - 1) / stateChunk; len(in.chunks) != want {
			t.Fatalf("n=%d: %d chunks for %d paths, want %d", n, len(in.chunks), len(v.Paths), want)
		}
		for i, p := range files {
			out := in.with(p, PathState{Kind: en.S.EnumConst(v.KindSort, KindFile), Content: en.S.EnumConst(v.ContentSort, v.LiteralToken("x"))})
			for _, q := range v.Paths {
				want := in.Lookup(q)
				if q == p {
					want = out.Lookup(q)
					if want.Kind.Same(in.Lookup(q).Kind) {
						t.Fatalf("n=%d: with(%s) did not update it", n, p)
					}
					continue
				}
				if got := out.Lookup(q); !got.Kind.Same(want.Kind) || !got.Content.Same(want.Content) {
					t.Fatalf("n=%d: with(%s) changed %s", n, p, q)
				}
			}
			copied := 0
			for k := range out.chunks {
				if out.chunks[k] != in.chunks[k] {
					copied++
				}
			}
			if copied != 1 {
				t.Fatalf("n=%d, file %d: with copied %d chunks, want 1", n, i, copied)
			}
		}
		// The encoding agrees with the concrete semantics up to the last
		// chunk's tail: creating every file under an existing /d succeeds.
		var parts []fs.Expr
		for _, p := range files {
			parts = append(parts, fs.Creat{Path: p, Content: "x"})
		}
		st := en.Apply(fs.SeqAll(parts...), en.ConstState(fs.State{"/d": fs.DirContent()}))
		en.S.Assert(en.S.Not(en.Ok(st)))
		if got := en.S.Check(); got != sat.Unsat {
			t.Fatalf("n=%d: creating every file under /d can fail (%v)", n, got)
		}
	}
}
