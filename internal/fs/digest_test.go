package fs_test

import (
	"encoding/hex"
	"testing"

	"repro/internal/fs"
	"repro/internal/qcache"
)

func TestDigestExprDeterministic(t *testing.T) {
	e := fs.Seq{
		E1: fs.If{A: fs.IsDir{fs.ParsePath("/usr")}, Then: fs.Id{}, Else: fs.Mkdir{fs.ParsePath("/usr")}},
		E2: fs.Creat{Path: fs.ParsePath("/usr/f"), Content: "hello"},
	}
	if fs.DigestExpr(e) != fs.DigestExpr(e) {
		t.Error("digest of the same expression differs between calls")
	}
	// Structurally equal but separately constructed values must collide.
	e2 := fs.Seq{
		E1: fs.If{A: fs.IsDir{fs.ParsePath("/usr")}, Then: fs.Id{}, Else: fs.Mkdir{fs.ParsePath("/usr")}},
		E2: fs.Creat{Path: fs.ParsePath("/usr/f"), Content: "hello"},
	}
	if fs.DigestExpr(e) != fs.DigestExpr(e2) {
		t.Error("structurally equal expressions digest differently")
	}
}

// Expressions that render similarly but differ structurally must not
// collide: the encoding is unambiguous (type tags + length-prefixed
// strings), not a pretty-print.
func TestDigestExprUnambiguous(t *testing.T) {
	p := fs.ParsePath
	distinct := []fs.Expr{
		fs.Id{},
		fs.Err{},
		fs.Mkdir{p("/a")},
		fs.Mkdir{p("/b")},
		fs.Rm{p("/a")},
		fs.Creat{Path: p("/a"), Content: ""},
		fs.Creat{Path: p("/a"), Content: "x"},
		fs.Cp{Src: p("/a"), Dst: p("/b")},
		fs.Cp{Src: p("/b"), Dst: p("/a")},
		fs.Seq{E1: fs.Mkdir{p("/a")}, E2: fs.Id{}},
		fs.Seq{E1: fs.Id{}, E2: fs.Mkdir{p("/a")}},
		// String-boundary attack: ("/ab", "c") vs ("/a", "bc") — the
		// length prefix must keep these apart.
		fs.Creat{Path: p("/ab"), Content: "c"},
		fs.Creat{Path: p("/a"), Content: "bc"},
		fs.If{A: fs.True{}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.False{}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.True{}, Then: fs.Err{}, Else: fs.Id{}},
		fs.If{A: fs.Not{fs.True{}}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.And{fs.IsFile{p("/a")}, fs.IsNone{p("/b")}}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.Or{fs.IsFile{p("/a")}, fs.IsNone{p("/b")}}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.IsDir{p("/a")}, Then: fs.Id{}, Else: fs.Err{}},
		fs.If{A: fs.IsEmptyDir{p("/a")}, Then: fs.Id{}, Else: fs.Err{}},
	}
	seen := make(map[fs.Digest]int)
	for i, e := range distinct {
		d := fs.DigestExpr(e)
		if j, dup := seen[d]; dup {
			t.Errorf("expressions %d and %d collide", j, i)
		}
		seen[d] = i
	}
}

// TestDigestExprGolden pins the digest scheme byte for byte. Digests name
// the verdict files of the on-disk cache tier, so a change here orphans
// every stored verdict and must come with a new qcache.DiskSchemeVersion.
func TestDigestExprGolden(t *testing.T) {
	p := fs.ParsePath
	pkg := fs.Seq{
		E1: fs.If{A: fs.IsDir{p("/usr")}, Then: fs.Id{}, Else: fs.Mkdir{p("/usr")}},
		E2: fs.If{
			A:    fs.And{fs.IsNone{p("/usr/bin/git")}, fs.Not{fs.IsEmptyDir{p("/usr")}}},
			Then: fs.Creat{Path: p("/usr/bin/git"), Content: "git"},
			Else: fs.Err{},
		},
	}
	conf := fs.If{
		A:    fs.Or{fs.IsFile{p("/etc/ntp.conf")}, fs.False{}},
		Then: fs.Seq{E1: fs.Rm{p("/etc/ntp.conf")}, E2: fs.Creat{Path: p("/etc/ntp.conf"), Content: "server pool.ntp.org"}},
		Else: fs.Cp{Src: p("/etc/ntp.dpkg"), Dst: p("/etc/ntp.conf")},
	}
	golden := []struct {
		name string
		e    fs.Expr
		hex  string
	}{
		{"id", fs.Id{}, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
		{"creat", fs.Creat{Path: p("/a"), Content: "bc"}, "09f78d6ba4d5915e7d403253e4c74d1fdfdf593cc34a74ec19de9772cc1b908c"},
		{"package", pkg, "1914fe6ea00897c149c7284686886491e1b418734fa29f5bf6271b398a83eb3a"},
		{"config", conf, "9ebe93f57614e794119f7f5cc36adf54948ed0ce76f68aa039b3178a522f0682"},
	}
	for _, g := range golden {
		d := fs.DigestExpr(g.e)
		if got := hex.EncodeToString(d[:]); got != g.hex {
			t.Errorf("DigestExpr(%s) = %s, want %s", g.name, got, g.hex)
		}
	}
	key := qcache.PairKey(fs.DigestExpr(conf), fs.DigestExpr(pkg), 7)
	const wantKey = "1914fe6ea00897c149c7284686886491e1b418734fa29f5bf6271b398a83eb3a." +
		"9ebe93f57614e794119f7f5cc36adf54948ed0ce76f68aa039b3178a522f0682.7"
	const wantRoute = "bca7f213f834643ff0c940257947dd0ee39d96fee7585b3393f1ef6d38b0ae5f"
	if got := key.Encode(); got != wantKey {
		t.Errorf("PairKey encodes as %s, want %s", got, wantKey)
	}
	if got := key.RouteID(); got != wantRoute {
		t.Errorf("PairKey content address = %s, want %s", got, wantRoute)
	}
}
