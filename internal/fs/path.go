// Package fs implements the FS language from section 3.2 of the Rehearsal
// paper: a loop-free imperative language of filesystem operations, together
// with its concrete semantics (figure 5) and the domain-bounding function
// (figure 8) used by the symbolic encoding.
package fs

import (
	"sort"
	"strings"
)

// Path is a normalized absolute filesystem path such as "/etc/nginx". The
// root directory is "/". Paths are plain strings so they can be used as map
// keys throughout the analyses.
type Path string

// Root is the filesystem root. It is always a directory in every state.
const Root Path = "/"

// FreshChildName is the path component appended by Dom for the fresh
// children that figure 8 introduces for rm(p) and emptydir?(p). Manifest
// paths never contain this component (the frontend rejects it).
const FreshChildName = ".rehearsal-fresh"

// MakePath builds a normalized Path from components, e.g.
// MakePath("etc", "nginx") == "/etc/nginx".
func MakePath(components ...string) Path {
	if len(components) == 0 {
		return Root
	}
	return Path("/" + strings.Join(components, "/"))
}

// ParsePath normalizes a textual path: collapses repeated slashes, removes
// trailing slashes and resolves "." components. It does not resolve "..".
// A path that is already normal is returned as it is, without allocating.
func ParsePath(s string) Path {
	if isNormal(s) {
		return Path(s)
	}
	return splitJoin(s)
}

// isNormal reports whether s is a normalized non-root path: it starts
// with "/", does not end with "/", and has no empty and no "." component.
// splitJoin returns such an s unchanged.
func isNormal(s string) bool {
	if len(s) < 2 || s[0] != '/' || s[len(s)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			if c := s[start:i]; c == "" || c == "." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// splitJoin normalizes s by splitting it at every "/" and joining the
// components that are neither empty nor ".".
func splitJoin(s string) Path {
	parts := strings.Split(s, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		if part == "" || part == "." {
			continue
		}
		out = append(out, part)
	}
	return MakePath(out...)
}

// IsRoot reports whether p is the root directory.
func (p Path) IsRoot() bool { return p == Root }

// Parent returns the parent directory of p. The parent of the root is the
// root itself.
func (p Path) Parent() Path {
	if p.IsRoot() {
		return Root
	}
	i := strings.LastIndexByte(string(p), '/')
	if i <= 0 {
		return Root
	}
	return p[:i]
}

// Base returns the final component of p, or "/" for the root.
func (p Path) Base() string {
	if p.IsRoot() {
		return "/"
	}
	i := strings.LastIndexByte(string(p), '/')
	return string(p[i+1:])
}

// Join appends a single component to p.
func (p Path) Join(component string) Path {
	if p.IsRoot() {
		return Path("/" + component)
	}
	return p + Path("/"+component)
}

// IsChildOf reports whether p is a direct child of dir.
func (p Path) IsChildOf(dir Path) bool {
	return !p.IsRoot() && p.Parent() == dir
}

// IsDescendantOf reports whether p is a strict descendant of dir.
func (p Path) IsDescendantOf(dir Path) bool {
	if p == dir {
		return false
	}
	if dir.IsRoot() {
		return !p.IsRoot()
	}
	return strings.HasPrefix(string(p), string(dir)+"/")
}

// Ancestors returns the strict ancestors of p ordered from the root down,
// excluding the root itself. Ancestors("/a/b/c") == ["/a", "/a/b"].
func (p Path) Ancestors() []Path {
	var out []Path
	for q := p.Parent(); !q.IsRoot(); q = q.Parent() {
		out = append(out, q)
	}
	// Reverse into root-first order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Depth returns the number of components in p; the root has depth 0.
func (p Path) Depth() int {
	if p.IsRoot() {
		return 0
	}
	return strings.Count(string(p), "/")
}

// FreshChild returns the synthetic child path used by Dom (figure 8).
func (p Path) FreshChild() Path { return p.Join(FreshChildName) }

// PathSet is a set of paths.
type PathSet map[Path]struct{}

// NewPathSet builds a set from the given paths.
func NewPathSet(paths ...Path) PathSet {
	s := make(PathSet, len(paths))
	for _, p := range paths {
		s.Add(p)
	}
	return s
}

// Add inserts p into the set.
func (s PathSet) Add(p Path) { s[p] = struct{}{} }

// Has reports membership.
func (s PathSet) Has(p Path) bool { _, ok := s[p]; return ok }

// AddAll inserts every path of other into s.
func (s PathSet) AddAll(other PathSet) {
	for p := range other {
		s.Add(p)
	}
}

// Intersects reports whether the two sets share any path.
func (s PathSet) Intersects(other PathSet) bool {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	for p := range small {
		if large.Has(p) {
			return true
		}
	}
	return false
}

// Sorted returns the paths in lexicographic order; useful for deterministic
// iteration and encoding.
func (s PathSet) Sorted() []Path {
	out := make([]Path, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a copy of the set.
func (s PathSet) Clone() PathSet {
	out := make(PathSet, len(s))
	out.AddAll(s)
	return out
}
