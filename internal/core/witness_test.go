package core

import (
	"testing"

	"repro/internal/fs"
)

// WellFormedInit restricts witnesses to realizable machines and never
// changes the verdict on the benchmark examples (their bugs manifest on
// well-formed states).
func TestWellFormedInit(t *testing.T) {
	opts := DefaultOptions()
	opts.WellFormedInit = true
	for _, c := range []struct {
		src  string
		want bool
	}{
		{fig3aBroken, false},
		{fig3aFixed, true},
		{introExample, false},
		{fig2, true},
	} {
		s, err := Load(c.src, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckDeterminism()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deterministic != c.want {
			t.Errorf("well-formed verdict %v, want %v", res.Deterministic, c.want)
		}
		if !res.Deterministic {
			// The witness must itself be a well-formed tree.
			if !res.Counterexample.Input.IsWellFormed() {
				t.Errorf("witness not well-formed: %s",
					fs.StateString(res.Counterexample.Input))
			}
		}
	}
}
