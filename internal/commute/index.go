package commute

import "repro/internal/fs"

// Index groups a list of summaries by the paths they touch, so that the
// summaries able to fail Commute against one of them can be listed
// without testing every pair — the per-resource file-access view of
// Sotiropoulos et al. Commute fails exactly when two summaries give one
// path incompatible effects, or one observes the child-set of a directory
// in which the other writes or ensures an entry; every other pair
// commutes syntactically (lemma 4). Candidates enumerates exactly the
// former, so a caller that tests only candidates reaches the same
// verdicts as one that tests every pair.
type Index struct {
	sums  []*Summary
	paths map[fs.Path]*[Write + 1][]int // path -> summaries by their effect there
	dirs  map[fs.Path]*dirUsers         // directory -> child-set observers and child writers
}

type dirUsers struct{ observers, writers []int }

// NewIndex indexes sums; Candidates refers to them by position. Nil
// entries are skipped, so callers may index summaries by sparse handles.
func NewIndex(sums []*Summary) *Index {
	x := &Index{
		sums:  sums,
		paths: make(map[fs.Path]*[Write + 1][]int),
		dirs:  make(map[fs.Path]*dirUsers),
	}
	for i, s := range sums {
		if s == nil {
			continue
		}
		for p, e := range s.paths {
			if e == Bot {
				continue
			}
			by := x.paths[p]
			if by == nil {
				by = new([Write + 1][]int)
				x.paths[p] = by
			}
			by[e] = append(by[e], i)
			if e == EnsureDir || e == Write {
				u := x.dir(p.Parent())
				u.writers = append(u.writers, i)
			}
		}
		for d := range s.childObs {
			x.dir(d).observers = append(x.dir(d).observers, i)
		}
	}
	return x
}

func (x *Index) dir(d fs.Path) *dirUsers {
	u := x.dirs[d]
	if u == nil {
		u = &dirUsers{}
		x.dirs[d] = u
	}
	return u
}

// conflicting lists, per effect, the effects it is incompatible with.
var conflicting = [Write + 1][]Effect{
	Read:      {EnsureDir, Write},
	EnsureDir: {Read, Write},
	Write:     {Read, EnsureDir, Write},
}

// Candidates calls fn for every summary that does not commute
// syntactically with sums[i]: Commute(sums[i], sums[j]) is false exactly
// for the js it reports. A j may be reported more than once, and i itself
// is reported when it conflicts with itself; callers filter both.
func (x *Index) Candidates(i int, fn func(j int)) {
	s := x.sums[i]
	for p, e := range s.paths {
		if e == Bot {
			continue
		}
		by := x.paths[p]
		for _, c := range conflicting[e] {
			for _, j := range by[c] {
				fn(j)
			}
		}
		if e == EnsureDir || e == Write {
			if u := x.dirs[p.Parent()]; u != nil {
				for _, j := range u.observers {
					fn(j)
				}
			}
		}
	}
	for d := range s.childObs {
		if u := x.dirs[d]; u != nil {
			for _, j := range u.writers {
				fn(j)
			}
		}
	}
}
