package core_test

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/pkgdb"
)

// TestDefaultCatalogShared: checks without a Provider share one built-in
// catalog per process, pkgdb.DefaultCatalog still hands out fresh ones,
// and the shared catalog yields the same verdicts as a private one on
// every suite manifest.
func TestDefaultCatalogShared(t *testing.T) {
	src := "package {'ntp': ensure => present }\n"
	a, err := core.Load(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Load(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if core.ProviderOf(a) != core.ProviderOf(b) {
		t.Error("two default Loads built separate catalogs")
	}
	if pkgdb.DefaultCatalog() == pkgdb.DefaultCatalog() {
		t.Error("pkgdb.DefaultCatalog returned a shared catalog")
	}

	for _, name := range benchmarks.Names() {
		bm, err := benchmarks.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		private := core.DefaultOptions()
		private.Provider = pkgdb.DefaultCatalog()
		var verdicts [2]bool
		for i, opts := range []core.Options{core.DefaultOptions(), private} {
			sys, err := core.Load(bm.Source, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := sys.CheckDeterminism()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			verdicts[i] = res.Deterministic
		}
		if verdicts[0] != verdicts[1] || verdicts[0] != bm.Deterministic {
			t.Errorf("%s: deterministic = %v with the shared catalog, %v with a private one, want %v",
				name, verdicts[0], verdicts[1], bm.Deterministic)
		}
	}
}
