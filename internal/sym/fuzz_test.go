package sym

// The standing SAT differential fuzzer (ISSUE 7 satellite, ROADMAP SAT
// item): random FS expression pairs, the solver's Commutes verdict checked
// against the brute-force oracle in internal/dynamic — a two-node
// dependency-free graph run in both orders over sampled concrete inputs.
// Any divergence means the SAT/SMT/symbolic stack changed a verdict, which
// no ring, heuristic or preprocessing change is ever allowed to do.
//
// Every case is also solved under each diverse solver config
// (sat.PortfolioConfigs): the verdict must match the default config and
// the oracle everywhere, and non-commuting cases must yield the
// byte-identical canonical counterexample regardless of config — the
// determinism contract that keeps report fingerprints stable.
//
// CI runs it as a dedicated job with a fixed seed and time box; both knobs
// are environment-driven so a failure reproduces exactly:
//
//	REHEARSAL_FUZZ_SEED=12345 REHEARSAL_FUZZ_MS=30000 go test ./internal/sym -run TestFuzzCommutesAgainstOracle

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/sat"
)

// fuzzEnvInt reads an integer knob from the environment.
func fuzzEnvInt(t *testing.T, name string, def int64) int64 {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, v, err)
	}
	return n
}

// oracleCommutes decides e1;e2 ≡ e2;e1 by brute force: both orders of a
// two-node graph, applied to every sampled input. Sound and complete over
// the sampled inputs only — the solver must agree on "does not commute"
// whenever the oracle finds a distinguishing input, and whenever the
// solver says "commutes" the oracle must find none.
func oracleCommutes(e1, e2 fs.Expr, inputs []fs.State) bool {
	g := graph.New[fs.Expr]()
	g.Add(e1)
	g.Add(e2)
	res := dynamic.Run(g, dynamic.Options{Inputs: inputs})
	return res.Deterministic
}

// fuzzWitness renders a counterexample for byte-identity comparison
// across configs ("" when the pair commutes).
func fuzzWitness(cex *Counterexample) string {
	if cex == nil {
		return ""
	}
	return cex.String()
}

func TestFuzzCommutesAgainstOracle(t *testing.T) {
	seed := fuzzEnvInt(t, "REHEARSAL_FUZZ_SEED", 1)
	budget := time.Duration(fuzzEnvInt(t, "REHEARSAL_FUZZ_MS", 3000)) * time.Millisecond
	r := rand.New(rand.NewSource(seed))
	cfg := fs.DefaultGenConfig()
	configs := sat.PortfolioConfigs(4)

	deadline := time.Now().Add(budget)
	pairs, disagreements := 0, 0
	var commuting, nonCommuting int
	for time.Now().Before(deadline) {
		e1 := fs.GenExpr(r, cfg, 3)
		e2 := fs.GenExpr(r, cfg, 3)

		got, cex, err := Commutes(e1, e2, Options{})
		if err != nil {
			// Budget exhaustion cannot happen with Budget 0; any error here
			// is a real solver failure.
			t.Fatalf("seed %d pair %d: Commutes failed: %v\ne1: %s\ne2: %s",
				seed, pairs, err, fs.String(e1), fs.String(e2))
		}
		witness := fuzzWitness(cex)

		// Every case also runs under each diverse config; verdicts and
		// canonical witnesses must be byte-identical to the default
		// config's.
		for _, c := range configs[1:] {
			cgot, ccex, err := Commutes(e1, e2, Options{Config: c})
			if err != nil {
				t.Fatalf("seed %d pair %d config %s: Commutes failed: %v", seed, pairs, c.Name, err)
			}
			if cgot != got {
				t.Fatalf("seed %d pair %d: config %s verdict %v != default %v\ne1: %s\ne2: %s",
					seed, pairs, c.Name, cgot, got, fs.String(e1), fs.String(e2))
			}
			if w := fuzzWitness(ccex); w != witness {
				t.Fatalf("seed %d pair %d: config %s canonical witness differs from default\ne1: %s\ne2: %s\ndefault:\n%s\n%s:\n%s",
					seed, pairs, c.Name, fs.String(e1), fs.String(e2), witness, c.Name, w)
			}
		}
		// Sample inputs for the oracle; a solver counterexample input joins
		// the sample so a "does not commute" verdict is always checkable.
		inputs := []fs.State{fs.NewState()}
		for i := 0; i < 12; i++ {
			inputs = append(inputs, fs.GenState(r, cfg))
		}
		if cex != nil {
			inputs = append(inputs, cex.Input)
		}
		want := oracleCommutes(e1, e2, inputs)

		switch {
		case got && !want:
			// Unsound: the solver proved commutativity but a concrete input
			// distinguishes the orders.
			disagreements++
			t.Errorf("seed %d pair %d: solver says COMMUTES, oracle found a distinguishing input\ne1: %s\ne2: %s",
				seed, pairs, fs.String(e1), fs.String(e2))
		case !got && cex == nil:
			t.Errorf("seed %d pair %d: non-commuting verdict without a counterexample", seed, pairs)
		case !got && want:
			// The oracle's sample (which includes the counterexample input)
			// found no divergence, yet the solver produced a replayed
			// counterexample — impossible unless the replay lied.
			disagreements++
			t.Errorf("seed %d pair %d: solver counterexample not confirmed by the oracle\ne1: %s\ne2: %s",
				seed, pairs, fs.String(e1), fs.String(e2))
		}
		if got {
			commuting++
		} else {
			nonCommuting++
		}
		pairs++
	}
	if pairs == 0 {
		t.Fatalf("time box %v admitted zero pairs", budget)
	}
	if commuting == 0 || nonCommuting == 0 {
		// Both verdicts must be exercised or the fuzz run proves nothing
		// about one of them; the default vocabulary comfortably yields both.
		t.Errorf("degenerate fuzz mix: %d commuting, %d non-commuting of %d pairs",
			commuting, nonCommuting, pairs)
	}
	t.Logf("fuzz: seed=%d pairs=%d commuting=%d non-commuting=%d disagreements=%d",
		seed, pairs, commuting, nonCommuting, disagreements)
}
