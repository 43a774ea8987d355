package core_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// pinnedGraphs are the SHA-256 digests (first 16 hex digits) of
// System.Dot() and of System.Graph()'s edge list for every embedded suite
// manifest and a 400-resource fleet. They pin the resource graph's
// vertex handles, insertion order and edge set across changes to the
// graph store and to FromCatalog's edge insertion.
var pinnedGraphs = map[string][2]string{
	"amavis":          {"b1979f7050e083ac", "776acb73d1594af0"},
	"bind":            {"abbbdbd7e472cf24", "e63d47068d586d2b"},
	"clamav":          {"f7abfbad2a4150e2", "5c87dfb95669deb7"},
	"dns-fixed":       {"4ffd1222c3a88670", "d154f11f986aeb47"},
	"dns-nondet":      {"86e90daa0135aa9a", "5e206b1f3d7eda82"},
	"fleet-400":       {"7d090e8bd0bcd4fc", "15a98ada78572794"},
	"hosting":         {"66886e1a6489c444", "adbbd09321562520"},
	"irc-fixed":       {"3618b81b2cd0fbf8", "bc415f1f9cb949f3"},
	"irc-nondet":      {"a350bd79c22d2704", "8f8d7b7f84df7e07"},
	"jpa":             {"7286354f7f11c5b3", "f8da0f27982ca24e"},
	"logstash-fixed":  {"14067d8e90a6aa10", "41a7a4688f21e3db"},
	"logstash-nondet": {"42a4e014016c9d4b", "2cc854e7b2ea31ee"},
	"monit":           {"83453f0379ce9c40", "82ba897b8dcb9fce"},
	"nginx":           {"c6313d311d0cca91", "ee9e496eb2ea87bd"},
	"ntp-fixed":       {"d82657c91c6a7aee", "1ba80a532240bfb8"},
	"ntp-nondet":      {"76948de3d917b08b", "e5a4ee6861b803c5"},
	"rsyslog-fixed":   {"d932df36d5f75dda", "d447ac4a6d693c16"},
	"rsyslog-nondet":  {"a8fa056edb5d6288", "550503edf7191798"},
	"xinetd-fixed":    {"70f079c219583f48", "108a0f4010d92253"},
	"xinetd-nondet":   {"50a4d06bfff9348f", "1b435cdd3e6b2e9e"},
}

// graphDigests renders sys's graph both ways and digests the renderings.
func graphDigests(sys *core.System) [2]string {
	var b strings.Builder
	g := sys.Graph()
	for _, n := range g.Nodes() {
		for _, m := range g.Succs(n) {
			fmt.Fprintf(&b, "%d %d %s -> %s\n", n, m, g.Label(n), g.Label(m))
		}
	}
	short := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
	return [2]string{short(sys.Dot()), short(b.String())}
}

func TestGraphOutputsPinned(t *testing.T) {
	srcs := make(map[string]string)
	for _, name := range benchmarks.Names() {
		b, err := benchmarks.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = b.Source
	}
	srcs["fleet-400"] = benchmarks.Fleet(400, benchmarks.FleetNone, 1)
	if len(srcs) != 20 {
		t.Fatalf("%d manifests, want the 19 suite manifests and one fleet", len(srcs))
	}
	for name, src := range srcs {
		sys, err := core.Load(src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := graphDigests(sys)
		if want, ok := pinnedGraphs[name]; !ok || got != want {
			t.Errorf("%s: digests = %q, want %q", name, got, want)
		}
	}
}
