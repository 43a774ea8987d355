package fs

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Digest is a canonical content hash of an expression: two expressions
// have equal digests iff they are structurally equal. It is the key
// material for the process-wide query cache (internal/qcache), which
// memoizes solver verdicts across manifests that share resource models.
type Digest [sha256.Size]byte

// DigestExpr computes the canonical digest of e. The scheme is a Merkle
// hash: a leaf digests its type tag and length-prefixed strings, an
// interior node digests its tag followed by its children's digests, so
// digests are independent of how subtrees are shared.
func DigestExpr(e Expr) Digest {
	h := sha256.New()
	switch e := e.(type) {
	case Id:
		h.Write([]byte{tagId})
	case Err:
		h.Write([]byte{tagErr})
	case Mkdir:
		h.Write([]byte{tagMkdir})
		writeString(h, string(e.Path))
	case Creat:
		h.Write([]byte{tagCreat})
		writeString(h, string(e.Path))
		writeString(h, e.Content)
	case Rm:
		h.Write([]byte{tagRm})
		writeString(h, string(e.Path))
	case Cp:
		h.Write([]byte{tagCp})
		writeString(h, string(e.Src))
		writeString(h, string(e.Dst))
	case Seq:
		h.Write([]byte{tagSeq})
		writeDigest(h, DigestExpr(e.E1))
		writeDigest(h, DigestExpr(e.E2))
	case If:
		h.Write([]byte{tagIf})
		writeDigest(h, DigestPred(e.A))
		writeDigest(h, DigestExpr(e.Then))
		writeDigest(h, DigestExpr(e.Else))
	default:
		panic("fs: unknown expression in DigestExpr")
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// DigestPred computes the canonical digest of a predicate, under the same
// Merkle scheme (the tag space is shared with expressions, so expression
// and predicate digests can never collide structurally).
func DigestPred(a Pred) Digest {
	h := sha256.New()
	switch a := a.(type) {
	case True:
		h.Write([]byte{tagTrue})
	case False:
		h.Write([]byte{tagFalse})
	case Not:
		h.Write([]byte{tagNot})
		writeDigest(h, DigestPred(a.P))
	case And:
		h.Write([]byte{tagAnd})
		writeDigest(h, DigestPred(a.L))
		writeDigest(h, DigestPred(a.R))
	case Or:
		h.Write([]byte{tagOr})
		writeDigest(h, DigestPred(a.L))
		writeDigest(h, DigestPred(a.R))
	case IsFile:
		h.Write([]byte{tagIsFile})
		writeString(h, string(a.Path))
	case IsDir:
		h.Write([]byte{tagIsDir})
		writeString(h, string(a.Path))
	case IsEmptyDir:
		h.Write([]byte{tagIsEmptyDir})
		writeString(h, string(a.Path))
	case IsNone:
		h.Write([]byte{tagIsNone})
		writeString(h, string(a.Path))
	default:
		panic("fs: unknown predicate in DigestPred")
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Node tags for the canonical encoding. Expressions and predicates share
// one tag space; values are fixed forever (digests are cache keys).
const (
	tagId byte = iota + 1
	tagErr
	tagMkdir
	tagCreat
	tagRm
	tagCp
	tagSeq
	tagIf
	tagTrue
	tagFalse
	tagNot
	tagAnd
	tagOr
	tagIsFile
	tagIsDir
	tagIsEmptyDir
	tagIsNone
)

func writeString(h hash.Hash, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func writeDigest(h hash.Hash, d Digest) {
	h.Write(d[:])
}
