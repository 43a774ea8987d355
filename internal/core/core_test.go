package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/fs"
)

func load(t *testing.T, src string) *System {
	t.Helper()
	s, err := Load(src, DefaultOptions())
	if err != nil {
		t.Fatalf("Load: %v\nsource:\n%s", err, src)
	}
	return s
}

func checkDet(t *testing.T, s *System) *DeterminismResult {
	t.Helper()
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatalf("CheckDeterminism: %v", err)
	}
	return res
}

// Figure 3a: a package and the config file it should precede, with the
// dependency omitted — non-deterministic error.
const fig3aBroken = `
file {"/etc/apache2/sites-available/000-default.conf":
  content => "<VirtualHost *:80>...</VirtualHost>",
}
package {"apache2": ensure => present }
`

const fig3aFixed = fig3aBroken + `
Package["apache2"] -> File["/etc/apache2/sites-available/000-default.conf"]
`

func TestFig3aNondeterministic(t *testing.T) {
	res := checkDet(t, load(t, fig3aBroken))
	if res.Deterministic {
		t.Fatal("fig 3a should be non-deterministic")
	}
	cex := res.Counterexample
	if cex == nil {
		t.Fatal("missing counterexample")
	}
	if len(cex.Order1) != 2 || len(cex.Order2) != 2 {
		t.Errorf("orders: %v / %v", cex.Order1, cex.Order2)
	}
	if cex.Ok1 == cex.Ok2 && cex.Out1.Equal(cex.Out2) {
		t.Error("counterexample does not distinguish")
	}
}

func TestFig3aFixedDeterministicAndIdempotent(t *testing.T) {
	s := load(t, fig3aFixed)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("fixed fig 3a should be deterministic: %+v", res.Counterexample)
	}
	idem, err := s.CheckIdempotence()
	if err != nil {
		t.Fatal(err)
	}
	if !idem.Idempotent {
		t.Fatalf("fixed fig 3a should be idempotent: %s", idem.Counterexample)
	}
}

// Figure 3b: over-constrained modules that cannot be composed — the false
// dependencies between make and m4 form a cycle.
const fig3b = `
define cpp() {
  if !defined(Package["m4"])   { package{"m4": ensure => present } }
  if !defined(Package["make"]) { package{"make": ensure => present } }
  package{"gcc": ensure => present }
  Package["m4"] -> Package["make"]
  Package["make"] -> Package["gcc"]
}
define ocaml() {
  if !defined(Package["make"]) { package{"make": ensure => present } }
  if !defined(Package["m4"])   { package{"m4": ensure => present } }
  package{"ocaml": ensure => present }
  Package["make"] -> Package["m4"]
  Package["m4"] -> Package["ocaml"]
}
cpp{"dev": }
ocaml{"dev": }
`

func TestFig3bCompositionCycle(t *testing.T) {
	_, err := Load(fig3b, DefaultOptions())
	if err == nil {
		t.Fatal("fig 3b should fail with a dependency cycle")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error: %v", err)
	}
	if !strings.Contains(err.Error(), "Package[") {
		t.Errorf("cycle should name resources: %v", err)
	}
	// The error is structured: tools (the service's failure reasons, the
	// CLI) can extract the resources in cycle order without parsing text.
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("Load returned %T, want *core.CycleError", err)
	}
	if len(ce.Resources) < 2 {
		t.Fatalf("cycle resources: %v", ce.Resources)
	}
	for _, r := range ce.Resources {
		if !strings.HasPrefix(r, "Package[") {
			t.Errorf("cycle entry %q should be a resource name", r)
		}
	}
}

// Figure 3c: remove Perl, install Go — on Ubuntu golang-go depends on
// perl, so the two orders reach different success states (silent failure).
const fig3c = `
package{"golang-go": ensure => present }
package{"perl": ensure => absent }
`

func TestFig3cSilentFailure(t *testing.T) {
	res := checkDet(t, load(t, fig3c))
	if res.Deterministic {
		t.Fatal("fig 3c should be non-deterministic")
	}
	cex := res.Counterexample
	// The witness must be a silent failure: both orders succeed with
	// different states (not an error/success split) on at least some
	// model; our replay reports the concrete outcome.
	if cex == nil {
		t.Fatal("missing counterexample")
	}
}

// Adding the dependency makes fig 3c deterministic but *not* idempotent
// (section 2.2): the package manager's check-then-act goes stale.
const fig3cOrdered = fig3c + `
Package["perl"] -> Package["golang-go"]
`

func TestFig3cOrderedNotIdempotent(t *testing.T) {
	s := load(t, fig3cOrdered)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("ordered fig 3c should be deterministic: %+v", res.Counterexample)
	}
	idem, err := s.CheckIdempotence()
	if err != nil {
		t.Fatal(err)
	}
	if idem.Idempotent {
		t.Fatal("ordered fig 3c should not be idempotent")
	}
	if idem.Counterexample == nil {
		t.Fatal("missing idempotence counterexample")
	}
}

// Figure 3d: copy then remove the source — deterministic but the second
// run always fails.
const fig3d = `
file{"/dst": source => "/src" }
file{"/src": ensure => absent }
File["/dst"] -> File["/src"]
`

func TestFig3dNotIdempotent(t *testing.T) {
	s := load(t, fig3d)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("fig 3d should be deterministic: %+v", res.Counterexample)
	}
	idem, err := s.CheckIdempotence()
	if err != nil {
		t.Fatal(err)
	}
	if idem.Idempotent {
		t.Fatal("fig 3d should not be idempotent")
	}
}

// Figure 2: the myuser defined type, fully ordered — deterministic and
// idempotent.
const fig2 = `
define myuser() {
  user {"$title":
    ensure     => present,
    managehome => true
  }
  file {"/home/${title}/.vimrc":
    content => "syntax on"
  }
  User["$title"] -> File["/home/${title}/.vimrc"]
}
myuser {"alice": }
myuser {"carol": }
`

func TestFig2DeterministicIdempotent(t *testing.T) {
	s := load(t, fig2)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("fig 2 should be deterministic: %+v", res.Counterexample)
	}
	idem, err := s.CheckIdempotence()
	if err != nil {
		t.Fatal(err)
	}
	if !idem.Idempotent {
		t.Fatalf("fig 2 should be idempotent: %s", idem.Counterexample)
	}
}

// The intro example (section 1): the vimrc file needs carol's home
// directory, created by the user resource — missing dependency.
const introExample = `
package{"vim": ensure => present }
file{"/home/carol/.vimrc": content => "syntax on" }
user{"carol": ensure => present, managehome => true }
`

func TestIntroExampleNondeterministic(t *testing.T) {
	res := checkDet(t, load(t, introExample))
	if res.Deterministic {
		t.Fatal("intro example should be non-deterministic")
	}
}

func TestIntroExampleFixed(t *testing.T) {
	res := checkDet(t, load(t, introExample+`
User["carol"] -> File["/home/carol/.vimrc"]
`))
	if !res.Deterministic {
		t.Fatalf("fixed intro example should be deterministic: %+v", res.Counterexample)
	}
}

// The evaluation's ssh-key bug class: a key without a dependency on its
// user.
const sshKeyBug = `
user{"deploy": ensure => present, managehome => true }
ssh_authorized_key{"deploy@ci":
  user => "deploy",
  type => "ssh-rsa",
  key  => "AAAAB3NzaC1yc2E",
}
`

func TestSSHKeyMissingUserDependency(t *testing.T) {
	res := checkDet(t, load(t, sshKeyBug))
	if res.Deterministic {
		t.Fatal("ssh key without user dependency should be non-deterministic")
	}
	fixed := load(t, sshKeyBug+`
User["deploy"] -> Ssh_authorized_key["deploy@ci"]
`)
	res = checkDet(t, fixed)
	if !res.Deterministic {
		t.Fatalf("fixed ssh key manifest should be deterministic: %+v", res.Counterexample)
	}
	idem, err := fixed.CheckIdempotence()
	if err != nil || !idem.Idempotent {
		t.Fatalf("fixed ssh key manifest should be idempotent: %v %s", err, idem.Counterexample)
	}
}

// Two keys for the same user commute (the authorized_keys-as-directory
// model, section 3.3).
func TestTwoKeysSameUserDeterministic(t *testing.T) {
	s := load(t, `
user{"deploy": ensure => present, managehome => true }
ssh_authorized_key{"k1": user => "deploy", key => "AAA", require => User["deploy"] }
ssh_authorized_key{"k2": user => "deploy", key => "BBB", require => User["deploy"] }
`)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("two keys should commute: %+v", res.Counterexample)
	}
}

// A file resource overwriting the authorized_keys path conflicts with the
// key model.
func TestFileVsKeyConflict(t *testing.T) {
	res := checkDet(t, load(t, `
user{"deploy": ensure => present, managehome => true }
ssh_authorized_key{"k1": user => "deploy", key => "AAA", require => User["deploy"] }
file{"/home/deploy/.ssh/authorized_keys": content => "hijacked", require => User["deploy"] }
`))
	if res.Deterministic {
		t.Fatal("file overwriting authorized_keys must conflict with keys")
	}
}

// Packages with disjoint closures and shared directories commute: no
// explicit dependencies needed, still deterministic (the point of the
// commutativity analysis, section 4.3).
func TestIndependentPackagesDeterministic(t *testing.T) {
	s := load(t, `
package{"ntp": ensure => present }
package{"monit": ensure => present }
package{"xinetd": ensure => present }
`)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("independent packages should be deterministic: %+v", res.Counterexample)
	}
	if res.Stats.Sequences != 1 {
		t.Errorf("POR should reduce to one sequence, got %d", res.Stats.Sequences)
	}
}

func TestEliminationAndPruningStats(t *testing.T) {
	s := load(t, fig3aFixed)
	res := checkDet(t, s)
	if res.Stats.Eliminated == 0 {
		t.Error("expected elimination to remove fringe resources")
	}
	if res.Stats.TotalPaths == 0 {
		t.Error("TotalPaths not recorded")
	}
	// Without analyses the same manifest must still verify (exactness).
	opts := DefaultOptions()
	opts.Elimination = false
	opts.Pruning = false
	s2, err := Load(fig3aFixed, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2 := checkDet(t, s2)
	if !res2.Deterministic {
		t.Error("analyses must not change the verdict")
	}
	if res2.Stats.Paths < res.Stats.Paths {
		t.Errorf("disabled analyses should model at least as many paths: %d < %d",
			res2.Stats.Paths, res.Stats.Paths)
	}
}

func TestTimeout(t *testing.T) {
	// Disable all reductions on a manifest with several unordered
	// interfering resources and give it no time.
	src := `
user{"u1": }
user{"u2": }
user{"u3": }
user{"u4": }
user{"u5": }
`
	opts := DefaultOptions()
	opts.Commutativity = false
	opts.Elimination = false
	opts.Pruning = false
	opts.Timeout = 1 * time.Nanosecond
	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckDeterminism(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestInvariant(t *testing.T) {
	s := load(t, `
file{"/etc/motd": content => "welcome" }
`)
	res, err := s.CheckFileInvariant("/etc/motd", "welcome")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("invariant should hold; violated from %s", fs.StateString(res.Input))
	}
	// A later resource overwrites the file: invariant violated.
	s = load(t, `
file{"/etc/motd": content => "welcome" }
file{"/etc/motd2": path => "/etc/motd", content => "pwned", require => File["/etc/motd"] }
`)
	res, err = s.CheckFileInvariant("/etc/motd", "welcome")
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("overwritten file should violate the invariant")
	}
}

func TestStageOrdering(t *testing.T) {
	s := load(t, `
stage{"pre": before => Stage["main"] }
class prep {
  user{"builder": ensure => present, managehome => true }
}
class {"prep": stage => "pre" }
file{"/home/builder/.profile": content => "export PATH" }
`)
	// The stage edge orders the user before the file, so the manifest is
	// deterministic even without an explicit dependency.
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("stage ordering should determinize: %+v", res.Counterexample)
	}
	// Without the stage, it is non-deterministic.
	res = checkDet(t, load(t, `
user{"builder": ensure => present, managehome => true }
file{"/home/builder/.profile": content => "export PATH" }
`))
	if res.Deterministic {
		t.Fatal("missing ordering should be non-deterministic")
	}
}

func TestAutorequireParentDirectory(t *testing.T) {
	// The managed parent directory is auto-required (section 3.1
	// footnote): no explicit edge needed.
	s := load(t, `
file{"/srv/app": ensure => directory }
file{"/srv/app/config": content => "x" }
`)
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatalf("autorequire should order dir before file: %+v", res.Counterexample)
	}
}

func TestExecRejected(t *testing.T) {
	_, err := Load(`exec{"curl http://example.com | sh": }`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "exec") {
		t.Fatalf("exec should be rejected: %v", err)
	}
}

func TestCentosPlatform(t *testing.T) {
	src := `
case $operatingsystem {
  'Ubuntu': { $pkg = 'apache2' }
  'CentOS': { $pkg = 'httpd' }
}
package{"$pkg": ensure => present }
`
	opts := DefaultOptions()
	opts.Platform = "centos"
	s, err := Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ResourceNames(); len(got) != 1 || got[0] != "Package[httpd]" {
		t.Errorf("resources: %v", got)
	}
	res := checkDet(t, s)
	if !res.Deterministic {
		t.Fatal("single package should be deterministic")
	}
}

// Differential test: the static verdict must agree with exhaustive dynamic
// enumeration on the paper's small examples.
func TestStaticAgreesWithDynamicBaseline(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"fig3a-broken", fig3aBroken},
		{"fig3a-fixed", fig3aFixed},
		{"fig3c", fig3c},
		{"fig3c-ordered", fig3cOrdered},
		{"fig3d", fig3d},
		{"fig2", fig2},
		{"intro", introExample},
		{"sshkey-bug", sshKeyBug},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := load(t, c.src)
			static := checkDet(t, s)
			// Dynamic baseline from a set of initial states: empty, plus
			// the static counterexample's input when one exists.
			inputs := []fs.State{fs.NewState()}
			if static.Counterexample != nil {
				inputs = append(inputs, static.Counterexample.Input)
			}
			dyn := dynamic.Run(s.ExprGraph(), dynamic.Options{Inputs: inputs})
			if static.Deterministic && !dyn.Deterministic {
				t.Fatalf("static=deterministic but dynamic found divergence from %s",
					fs.StateString(dyn.Input))
			}
			if !static.Deterministic && dyn.Deterministic {
				t.Fatalf("static found nondeterminism but dynamic (seeded with the witness) did not; witness input %s",
					fs.StateString(static.Counterexample.Input))
			}
		})
	}
}

func TestDotAndNames(t *testing.T) {
	s := load(t, fig3aFixed)
	if dot := s.Dot(); !strings.Contains(dot, "Package[apache2]") {
		t.Errorf("dot output: %s", dot)
	}
	if names := s.ResourceNames(); len(names) != 2 {
		t.Errorf("names: %v", names)
	}
	g := s.Graph()
	if g.Len() != 2 || g.NumEdges() != 1 {
		t.Errorf("graph copy: %d nodes %d edges", g.Len(), g.NumEdges())
	}
	if s.Size() != 2 {
		t.Errorf("Size: %d", s.Size())
	}
}

// TestDependencyErrorText pins the message of a dependency that cannot be
// resolved: tools match on it, and FromCatalog renders it only on the
// error path.
func TestDependencyErrorText(t *testing.T) {
	src := "@package {'x': ensure => present }\nfile {'/a': content => 'y', require => Package['x'] }\n"
	_, err := Load(src, DefaultOptions())
	const want = "dependency at 2:1: reference Package[x] targets an unrealized virtual resource"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
