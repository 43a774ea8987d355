package commute

import (
	"math/rand"
	"testing"
)

// TestIndexCandidatesAreExactlyConflicts: over random summaries, the
// index reports j for i exactly when Commute(i, j) is false.
func TestIndexCandidatesAreExactlyConflicts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		sums := make([]*Summary, 2+r.Intn(12))
		for i := range sums {
			sums[i] = Analyze(genBlock(r))
		}
		sums = append(sums, nil) // nil entries are skipped
		x := NewIndex(sums)
		for i, a := range sums {
			if a == nil {
				continue
			}
			got := make(map[int]bool)
			x.Candidates(i, func(j int) { got[j] = true })
			for j, b := range sums {
				if b == nil {
					if got[j] {
						t.Fatalf("trial %d: nil summary %d reported", trial, j)
					}
					continue
				}
				if want := !Commute(a, b); got[j] != want {
					t.Fatalf("trial %d: candidate(%d, %d) = %v, want %v", trial, i, j, got[j], want)
				}
			}
		}
	}
}
