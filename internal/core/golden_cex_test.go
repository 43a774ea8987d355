package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/fs"
)

// goldenCex is a counterexample as reported: the witness input rendered by
// fs.StateString, each order as the SHA-256 of its resource names joined
// by newlines, both error flags, and whether the check fell back to the
// exact configuration to find it.
type goldenCex struct {
	Input          string
	Order1, Order2 string
	Ok1, Ok2       bool
	Fallback       bool
}

// goldenCexes pins the counterexample of every non-deterministic suite
// manifest, of the two masking shapes, and of the faulty fleet classes at
// 1,200 resources, seeds 1–3. A change to how a witness is found, shrunk
// or replayed that alters any reported byte fails here, not only a change
// of verdict. On a mismatch the test prints the entry it observed.
var goldenCexes = map[string]goldenCex{
	"dns-nondet":                   {Input: "{}", Order1: "a06449a5a36a76ddf43165574c6b1ec975d07a316e6add792e575379e68485c3", Order2: "645156cdc461350120c2345883ad8446b5b119076c365dcb1d89ce52fe47ddda", Ok1: true, Ok2: false, Fallback: false},
	"errorMasked":                  {Input: "{}", Order1: "ad4082baf9f8be266ea26c8619f3da40e5e065dc1378e5403ab87d146f5e8197", Order2: "8923ef9c35bb4fb95f80d1b10ac825e907f153a8e74ef1dea7248e2136a6faa3", Ok1: true, Ok2: false, Fallback: false},
	"fallbackNeeded":               {Input: "{/etc/postfix=dir, /var/lib/pkgdb/ntp=file(\"ι:/var/lib/pkgdb/ntp\"), /var/lib/pkgdb/postfix=file(\"ι:/var/lib/pkgdb/postfix\")}", Order1: "dd3131ee9f00db1be16f34ec864cabfccf16513a59e283c2dbb37bc1fa90e182", Order2: "e2b0b3c9a6edcbe83e246cbadb2565d015d0649b723902fd6d980df6d22aaf81", Ok1: true, Ok2: false, Fallback: true},
	"fleet-1200/local-dep/seed=1":  {Input: "{}", Order1: "14fe91691b6d1debc9ffebbfc5a952a3ce0ee7b2d2dbe33358f73860746483f6", Order2: "e28ba8ee04f14050497c6af90399398f33124522b7c03eb9ca42a100c69dee67", Ok1: true, Ok2: false, Fallback: false},
	"fleet-1200/local-dep/seed=2":  {Input: "{}", Order1: "533c53d990a4b56fe62702f3c262d5d23f763a58f61ceecdc07cb7f08c896c31", Order2: "6c6a9b77959e56a54381617b415851b4a5fa1f8e3ba84f202317e802f4e88f01", Ok1: true, Ok2: false, Fallback: false},
	"fleet-1200/local-dep/seed=3":  {Input: "{}", Order1: "982c16f52d946b0e8454b954432ed3ed19000d591b59a0222c02b03f496fbe34", Order2: "316c57de4a52b1514171b8d9ab10a4bc74d31901a0227e0e2b31a79b55c4038a", Ok1: true, Ok2: false, Fallback: false},
	"fleet-1200/pkg-config/seed=1": {Input: "{/var/lib/pkgdb/ntp=file(\"ι:/var/lib/pkgdb/ntp\")}", Order1: "27c36b6b7f5b0d05194ded6d94f5e98ebd3d980d88575533c71ae07c3c3c940c", Order2: "cb2a9c669da38741f5db60ee80da47c93885259ddc8a44402062a61caf8e5a54", Ok1: false, Ok2: true, Fallback: false},
	"fleet-1200/pkg-config/seed=2": {Input: "{/var/lib/pkgdb/ntp=file(\"ι:/var/lib/pkgdb/ntp\")}", Order1: "a1a2623c0e96e43d73cd1c301833f6dd0b204348170405e8a394679cd293fde8", Order2: "26b0912aa86fc45cc8038be2811152e3c6f0f47811eb5342cd8189df945e6aed", Ok1: false, Ok2: true, Fallback: false},
	"fleet-1200/pkg-config/seed=3": {Input: "{/var/lib/pkgdb/ntp=file(\"ι:/var/lib/pkgdb/ntp\")}", Order1: "d12a2025a5c307259c93f2b42035cf3fff9629e4fdfbbe3c63398c601847f848", Order2: "f526b095ad96641ccc7900cca2a32961c7468d6a142859f8b38ce98e1d50e6a1", Ok1: false, Ok2: true, Fallback: false},
	"irc-nondet":                   {Input: "{}", Order1: "fd7df7b04f482a968c5d59892652cce6ec7662c507965c1d9063cf7a866d0673", Order2: "d38b847933299bc99f2b659055475bf959ae50889a7ae7ae976d379c5ebddb3d", Ok1: true, Ok2: false, Fallback: false},
	"logstash-nondet":              {Input: "{}", Order1: "ac6e31b391d2b6c44b0711b6f5dc3bcddd5bdbb5a34c6874f05045d9ddccabdd", Order2: "5ec7c5941808f728a856eff2be69f40e8986e0601aa5dab4ec0b8d2eff7bf0d6", Ok1: true, Ok2: false, Fallback: false},
	"ntp-nondet":                   {Input: "{}", Order1: "8412f16127db1a11dc6defd8530089b0f2f862e9abbe2f89fce869f88195fb78", Order2: "0002290c1c7a03bca7397e53bfa8fbc43f514538b026336789050a5fd6c4a4bd", Ok1: true, Ok2: false, Fallback: false},
	"rsyslog-nondet":               {Input: "{}", Order1: "3b8ef1e6cf0a4e6d2852198d551fc44dc452bf363b0b7fb63c6ec16e81ce4529", Order2: "05bcbe9296d8cf5367e0828690ca2bc93eb203ff9196a963ae26adab6455a6ee", Ok1: true, Ok2: false, Fallback: false},
	"xinetd-nondet":                {Input: "{}", Order1: "6e63e29a4c78f2be570a98a38425a212295dc1321cc6149a05fbcecd9f55d504", Order2: "91929f6d8dbfaacc93b11862224d7915540fd567eccc1d4d8be519432972bc80", Ok1: true, Ok2: false, Fallback: false},
}

// goldenCexManifests returns the manifests goldenCexes pins, by name.
func goldenCexManifests() map[string]string {
	ms := map[string]string{
		"errorMasked":    errorMasked,
		"fallbackNeeded": fallbackNeeded,
	}
	for _, b := range benchmarks.All() {
		if !b.Deterministic {
			ms[b.Name] = b.Source
		}
	}
	for _, f := range []benchmarks.FleetFault{benchmarks.FleetLocalDep, benchmarks.FleetPkgConfig} {
		for seed := int64(1); seed <= 3; seed++ {
			ms[fmt.Sprintf("fleet-1200/%s/seed=%d", f, seed)] = benchmarks.Fleet(1200, f, seed)
		}
	}
	return ms
}

// orderDigest is the SHA-256 of an order's resource names, one per line.
func orderDigest(order []string) string {
	sum := sha256.Sum256([]byte(strings.Join(order, "\n")))
	return hex.EncodeToString(sum[:])
}

func TestCounterexamplesGolden(t *testing.T) {
	ms := goldenCexManifests()
	if len(ms) != len(goldenCexes) {
		t.Errorf("%d manifests, %d golden counterexamples", len(ms), len(goldenCexes))
	}
	opts := core.DefaultOptions()
	opts.Timeout = time.Minute
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sys, err := core.Load(ms[name], opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fellBack := false
		restore := core.SetExactFallbackTestHook(func() { fellBack = true })
		res, err := sys.CheckDeterminism()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Deterministic {
			t.Errorf("%s: verdict deterministic, want non-deterministic", name)
			continue
		}
		cex := res.Counterexample
		got := goldenCex{
			Input:  fs.StateString(cex.Input),
			Order1: orderDigest(cex.Order1), Order2: orderDigest(cex.Order2),
			Ok1: cex.Ok1, Ok2: cex.Ok2,
			Fallback: fellBack,
		}
		if want, ok := goldenCexes[name]; !ok || got != want {
			t.Errorf("%s: counterexample changed; observed\n\t%q: %#v,", name, name, got)
		}
	}
}

// Counterexample inputs are minimized on the full resource graph: removing
// any single entry must stop the divergence of the reported orders,
// rebuilt from the unpruned resource models. The manifests goldenCexes
// pins are checked too; on the fleet ones elimination removes almost
// every resource before the witness is found.
func TestCounterexampleMinimal(t *testing.T) {
	ms := goldenCexManifests()
	for i, src := range core.WitnessManifests {
		ms[fmt.Sprintf("witness-%d", i)] = src
	}
	for name, src := range ms {
		sys, err := core.Load(src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sys.CheckDeterminism()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Deterministic {
			t.Fatalf("%s: expected non-deterministic", name)
		}
		cex := res.Counterexample
		assertReplays(t, sys, cex)
		e1, e2 := replayExprs(t, sys, cex)
		for _, p := range cex.Input.Paths() {
			reduced := cex.Input.Clone()
			delete(reduced, p)
			if diverges(e1, e2, reduced) {
				t.Errorf("%s: witness not minimal: %s is removable from %s",
					name, p, fs.StateString(cex.Input))
			}
		}
	}
}

// pinnedTotalPaths are the Stats.TotalPaths of every suite manifest and of
// each fleet fault class at 1,200 resources, seeds 1–3: the unpruned path
// count of figure 11a must not move when the domain is accumulated
// differently.
var pinnedTotalPaths = map[string]int{
	"amavis":                       451,
	"bind":                         105,
	"clamav":                       115,
	"dns-nondet":                   98,
	"fleet-1200/local-dep/seed=1":  2834,
	"fleet-1200/local-dep/seed=2":  2834,
	"fleet-1200/local-dep/seed=3":  2834,
	"fleet-1200/none/seed=1":       2834,
	"fleet-1200/none/seed=2":       2834,
	"fleet-1200/none/seed=3":       2834,
	"fleet-1200/pkg-config/seed=1": 2834,
	"fleet-1200/pkg-config/seed=2": 2834,
	"fleet-1200/pkg-config/seed=3": 2834,
	"hosting":                      464,
	"irc-nondet":                   37,
	"jpa":                          517,
	"logstash-nondet":              501,
	"monit":                        35,
	"nginx":                        91,
	"ntp-nondet":                   51,
	"rsyslog-nondet":               58,
	"xinetd-nondet":                32,
}

func TestTotalPathsPinned(t *testing.T) {
	ms := map[string]string{}
	for _, b := range benchmarks.All() {
		ms[b.Name] = b.Source
	}
	for f := benchmarks.FleetNone; f <= benchmarks.FleetPkgConfig; f++ {
		for seed := int64(1); seed <= 3; seed++ {
			ms[fmt.Sprintf("fleet-1200/%s/seed=%d", f, seed)] = benchmarks.Fleet(1200, f, seed)
		}
	}
	if len(ms) != len(pinnedTotalPaths) {
		t.Errorf("%d manifests, %d pins", len(ms), len(pinnedTotalPaths))
	}
	for name, src := range ms {
		sys, err := core.Load(src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := sys.TotalPaths(), pinnedTotalPaths[name]; got != want {
			t.Errorf("%q: %d total paths, want %d", name, got, want)
		}
	}
}
