package main

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/faults"
	"repro/internal/pkgdb"
	"repro/internal/service"
)

// runCapture invokes run with the given args, capturing stdout.
func runCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	old := os.Stdout
	w, wait := drainPipe(t)
	os.Stdout = w
	code := run(args)
	os.Stdout = old
	return code, wait()
}

// drainPipe returns the write end of a pipe whose read end is drained in
// the background, so output larger than the pipe buffer cannot block the
// writer. wait closes the write end and returns everything written.
func drainPipe(t *testing.T) (*os.File, func() string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		out <- string(b)
	}()
	return w, func() string {
		w.Close()
		return <-out
	}
}

func writeManifest(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "site.pp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const okManifest = `
package {'ntp': ensure => present }
file {'/etc/ntp.conf': content => 'server pool.ntp.org', require => Package['ntp'] }
`

const buggyManifest = `
package {'ntp': ensure => present }
file {'/etc/ntp.conf': content => 'server pool.ntp.org' }
`

func TestVerifyOK(t *testing.T) {
	code, out := runCapture(t, writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{"determinism: OK", "idempotence: OK", "loaded 2 resources"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestVerifyNondeterministic(t *testing.T) {
	code, out := runCapture(t, writeManifest(t, buggyManifest))
	if code != 1 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{"determinism: FAIL", "order A", "order B", "initial state"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestVerboseStats(t *testing.T) {
	code, out := runCapture(t, "-v", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "resources=2") || !strings.Contains(out, "sequences=") {
		t.Errorf("missing stats in:\n%s", out)
	}
}

func TestDotOutput(t *testing.T) {
	code, out := runCapture(t, "-dot", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "Package[ntp]") {
		t.Errorf("dot output:\n%s", out)
	}
}

func TestInvariantFlag(t *testing.T) {
	code, out := runCapture(t,
		"-invariant", "/etc/ntp.conf=server pool.ntp.org",
		writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "invariant /etc/ntp.conf=server pool.ntp.org: OK") {
		t.Errorf("missing invariant result:\n%s", out)
	}
	// A violated invariant exits nonzero.
	code, out = runCapture(t,
		"-invariant", "/etc/ntp.conf=some other content",
		writeManifest(t, okManifest))
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Errorf("violated invariant: exit %d output:\n%s", code, out)
	}
	// A malformed invariant flag is a usage error caught before any check
	// runs, in text and JSON mode alike.
	for _, mode := range [][]string{nil, {"-json"}} {
		args := append(append([]string{}, mode...), "-invariant", "missing-equals", writeManifest(t, okManifest))
		code, out, errOut := runCapture2(t, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "-invariant must be path=content") {
			t.Errorf("malformed invariant %v: exit %d, want 2 with no checks run; stdout:\n%s\nstderr:\n%s", mode, code, out, errOut)
		}
	}
}

func TestSkipIdempotence(t *testing.T) {
	code, out := runCapture(t, "-skip-idempotence", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "idempotence") {
		t.Errorf("idempotence should be skipped:\n%s", out)
	}
}

func TestPlatformFlag(t *testing.T) {
	src := `
case $operatingsystem {
  'Ubuntu': { package {'apache2': } }
  'CentOS': { package {'httpd': } }
}
`
	code, out := runCapture(t, "-platform", "centos", "-dot", writeManifest(t, src))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "Package[httpd]") || strings.Contains(out, "apache2") {
		t.Errorf("platform dispatch wrong:\n%s", out)
	}
}

func TestAblationFlags(t *testing.T) {
	code, out := runCapture(t,
		"-no-commutativity", "-no-elimination", "-no-pruning", "-v",
		writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "eliminated=0") {
		t.Errorf("elimination should be off:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _ := runCapture(t); code != 2 {
		t.Errorf("no args: exit %d", code)
	}
	if code, _ := runCapture(t, "/nonexistent/manifest.pp"); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
	bad := writeManifest(t, "package {")
	if code, _ := runCapture(t, bad); code != 1 {
		t.Errorf("parse error: expected exit 1")
	}
	cyclic := writeManifest(t, `
package {'m4': }
package {'make': }
Package['m4'] -> Package['make']
Package['make'] -> Package['m4']
`)
	code, out := runCapture(t, cyclic)
	if code != 1 {
		t.Errorf("cycle: exit %d", code)
	}
	_ = out
}

func TestNodeFlag(t *testing.T) {
	src := `
node 'web01' { package {'nginx': } }
node default { package {'generic': } }
`
	code, out := runCapture(t, "-node", "web01", "-dot", writeManifest(t, src))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "Package[nginx]") || strings.Contains(out, "generic") {
		t.Errorf("node selection wrong:\n%s", out)
	}
}

func TestAllPlatforms(t *testing.T) {
	src := `
case $operatingsystem {
  'Ubuntu': { package {'apache2': ensure => present } }
  'CentOS': { package {'httpd': ensure => present } }
}
`
	code, out := runCapture(t, "-all-platforms", writeManifest(t, src))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for _, want := range []string{"=== platform ubuntu ===", "=== platform centos ==="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "determinism: OK") != 2 {
		t.Errorf("expected two verdicts:\n%s", out)
	}
	// With -json, stdout holds only the reports, one per platform in order.
	code, out = runCapture(t, "-json", "-all-platforms", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("-json: exit %d:\n%s", code, out)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var platforms []string
	for {
		var rep service.Report
		err := dec.Decode(&rep)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("-json stdout is not a stream of reports: %v\n%s", err, out)
		}
		if rep.Verdict != service.VerdictPass {
			t.Errorf("%s report: %+v", rep.Platform, rep)
		}
		platforms = append(platforms, rep.Platform)
	}
	if strings.Join(platforms, ",") != "ubuntu,centos" {
		t.Errorf("report platforms = %v, want [ubuntu centos]", platforms)
	}
	// A manifest that is fine on ubuntu but references a package missing
	// on centos fails only there.
	code, out = runCapture(t, "-all-platforms", writeManifest(t, `package {'golang-go': }`))
	if code == 0 {
		t.Fatalf("exit %d should be nonzero (golang-go unknown on centos):\n%s", code, out)
	}
}

func TestSuggestRepair(t *testing.T) {
	code, out := runCapture(t, "-suggest", writeManifest(t, buggyManifest))
	if code != 1 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "suggested dependencies:") ||
		!strings.Contains(out, "Package[ntp] -> File[/etc/ntp.conf]") {
		t.Errorf("missing suggestion:\n%s", out)
	}
}

func TestNonIdempotentManifest(t *testing.T) {
	src := `
file {'/dst': source => '/src' }
file {'/src': ensure => absent }
File['/dst'] -> File['/src']
`
	code, out := runCapture(t, writeManifest(t, src))
	if code != 1 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "determinism: OK") || !strings.Contains(out, "idempotence: FAIL") {
		t.Errorf("fig 3d output:\n%s", out)
	}
}

func TestMultipleManifests(t *testing.T) {
	ok := writeManifest(t, okManifest)
	buggy := filepath.Join(t.TempDir(), "buggy.pp")
	if err := os.WriteFile(buggy, []byte(buggyManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCapture(t, "-parallel", "4", ok, buggy)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (worst verdict wins):\n%s", code, out)
	}
	// Per-manifest blocks appear under headers, in argument order.
	okHdr := strings.Index(out, "=== "+ok+" ===")
	buggyHdr := strings.Index(out, "=== "+buggy+" ===")
	if okHdr < 0 || buggyHdr < 0 {
		t.Fatalf("missing per-manifest headers:\n%s", out)
	}
	if okHdr > buggyHdr {
		t.Errorf("manifests reported out of argument order:\n%s", out)
	}
	if !strings.Contains(out[okHdr:buggyHdr], "determinism: OK") {
		t.Errorf("first manifest block wrong:\n%s", out)
	}
	if !strings.Contains(out[buggyHdr:], "determinism: FAIL") {
		t.Errorf("second manifest block wrong:\n%s", out)
	}
}

func TestMultipleManifestsMissingFile(t *testing.T) {
	ok := writeManifest(t, okManifest)
	code, out := runCapture(t, ok, "/nonexistent/other.pp")
	if code != 2 {
		t.Fatalf("exit %d, want 2 for unreadable manifest:\n%s", code, out)
	}
	if !strings.Contains(out, "=== "+ok+" ===") {
		t.Errorf("readable manifest should still be checked:\n%s", out)
	}
}

// TestInfrastructureExitCode: an unreachable listing service is an
// infrastructure failure (exit 4), distinguished from verdict failures
// (exit 1) and usage errors (exit 2).
func TestInfrastructureExitCode(t *testing.T) {
	code, _ := runCapture(t,
		"-pkg-server", "http://127.0.0.1:1",
		"-net-retries", "1", "-net-timeout", "200ms",
		writeManifest(t, okManifest))
	if code != 4 {
		t.Fatalf("exit %d, want 4 for an unreachable listing service", code)
	}
}

// TestSnapshotFallbackExitZero: with a snapshot attached, the same dead
// service degrades to the offline catalog and the check passes.
func TestSnapshotFallbackExitZero(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "catalog.snapshot")
	if err := pkgdb.WriteSnapshotFile(pkgdb.DefaultCatalog(), snap); err != nil {
		t.Fatal(err)
	}
	code, out := runCapture(t,
		"-pkg-server", "http://127.0.0.1:1",
		"-net-retries", "1", "-net-timeout", "200ms",
		"-snapshot", snap,
		writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d, want 0 via snapshot fallback:\n%s", code, out)
	}
	if !strings.Contains(out, "determinism: OK") {
		t.Errorf("missing verdict:\n%s", out)
	}
	// A missing snapshot file is a usage error.
	if code, _ := runCapture(t, "-pkg-server", "http://127.0.0.1:1",
		"-snapshot", "/nonexistent.snapshot", writeManifest(t, okManifest)); code != 2 {
		t.Errorf("missing snapshot file: exit %d, want 2", code)
	}
}

// TestChaosServerVerdictsMatch is the end-to-end differential property:
// against a listing service that injects a burst of faults (503, aborted
// connections, truncated and corrupted JSON) on every path, a retry
// budget larger than the burst yields output byte-identical to the
// fault-free service — for a passing and a failing manifest, and for the
// whole benchmark suite and its fixed variants in one multi-manifest run.
func TestChaosServerVerdictsMatch(t *testing.T) {
	dir := t.TempDir()
	suite := []string{"-skip-idempotence"}
	for _, b := range benchmarks.All() {
		suite = append(suite, writeManifestNamed(t, dir, b.Name+".pp", b.Source))
		if b.FixedName != "" {
			fixed, err := benchmarks.Get(b.FixedName)
			if err != nil {
				t.Fatal(err)
			}
			suite = append(suite, writeManifestNamed(t, dir, fixed.Name+".pp", fixed.Source))
		}
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"ok", []string{writeManifest(t, okManifest)}},
		{"buggy", []string{writeManifest(t, buggyManifest)}},
		{"benchmarks", suite},
	} {
		clean := httptest.NewServer(pkgdb.Handler(pkgdb.DefaultCatalog()))
		plan := faults.NewPlan(faults.Config{Seed: 7, Burst: 2})
		chaotic := httptest.NewServer(faults.Middleware(plan, pkgdb.Handler(pkgdb.DefaultCatalog())))
		args := func(url string) []string {
			return append([]string{"-pkg-server", url, "-net-retries", "8"}, c.args...)
		}
		wantCode, wantOut := runCapture(t, args(clean.URL)...)
		gotCode, gotOut := runCapture(t, args(chaotic.URL)...)
		clean.Close()
		chaotic.Close()
		if gotCode != wantCode {
			t.Errorf("%s: exit %d under faults, %d clean", c.name, gotCode, wantCode)
		}
		if gotOut != wantOut {
			t.Errorf("%s: output differs under faults:\nfaulty:\n%s\nclean:\n%s", c.name, gotOut, wantOut)
		}
		if plan.StatsSnapshot().Injected == 0 {
			t.Errorf("%s: the chaotic server injected no faults", c.name)
		}
	}
}

func TestParallelFlagVerbose(t *testing.T) {
	code, out := runCapture(t, "-v", "-parallel", "3", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "workers=3") {
		t.Errorf("missing workers stat:\n%s", out)
	}
}

// runCapture2 invokes run capturing stdout and stderr separately.
func runCapture2(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	wo, waitOut := drainPipe(t)
	we, waitErr := drainPipe(t)
	os.Stdout, os.Stderr = wo, we
	code := run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	return code, waitOut(), waitErr()
}

// TestJSONMode: -json emits one report document per manifest on stdout, in
// the service's job-report schema, with the usual exit-code classes.
func TestJSONMode(t *testing.T) {
	code, out := runCapture(t, "-json", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var rep service.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, out)
	}
	if rep.Verdict != service.VerdictPass || rep.Resources != 2 {
		t.Errorf("report: %+v", rep)
	}
	if rep.Determinism == nil || !rep.Determinism.Ok || rep.Idempotence == nil || !rep.Idempotence.Ok {
		t.Errorf("check reports: det=%+v idem=%+v", rep.Determinism, rep.Idempotence)
	}
	if rep.Stats == nil {
		t.Error("report should embed engine stats")
	}

	// A failing manifest: verdict fail, witness inline, exit 1.
	code, out = runCapture(t, "-json", "-suggest", writeManifest(t, buggyManifest))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != service.VerdictFail || rep.Determinism.Ok {
		t.Errorf("report: %+v", rep)
	}
	if rep.Determinism.Witness == nil || len(rep.Determinism.Witness.Order1) == 0 {
		t.Errorf("witness: %+v", rep.Determinism.Witness)
	}
	if rep.Repair == nil || !rep.Repair.Found || len(rep.Repair.Edges) == 0 {
		t.Errorf("repair: %+v", rep.Repair)
	}

	// A dependency cycle: structured reason naming resources, exit 1.
	cyclic := `
package {'ntp': ensure => present, require => Package['git'] }
package {'git': ensure => present, require => Package['ntp'] }
`
	code, out = runCapture(t, "-json", writeManifest(t, cyclic))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Error == nil || rep.Error.Class != service.ClassManifest || len(rep.Error.Cycle) == 0 {
		t.Errorf("cycle reason: %+v", rep.Error)
	}
}

// TestStatsOnStderr: -stats diagnostics go to stderr, keeping stdout clean
// for verdicts and JSON.
func TestStatsOnStderr(t *testing.T) {
	code, out, errOut := runCapture2(t, "-stats", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "solver-queries=") {
		t.Errorf("-stats leaked onto stdout:\n%s", out)
	}
	if !strings.Contains(errOut, "solver-queries=") || !strings.Contains(errOut, "disk-cache-hits=") {
		t.Errorf("-stats missing from stderr:\n%s", errOut)
	}

	// JSON mode plus -stats: stdout stays a parseable document.
	code, out, _ = runCapture2(t, "-json", "-stats", writeManifest(t, okManifest))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep service.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout not clean JSON with -stats: %v\n%s", err, out)
	}
}

// Manifests for -diff tests: three packages whose dependency closures all
// include perl, so every pair syntactically conflicts on the shared files
// and must be discharged by a semantic commutativity query. The head
// version swaps spamassassin for amavisd-new, leaving the (git, golang-go)
// pair untouched — its verdict should be inherited, not re-solved.
const diffBaseManifest = `
package {'git': ensure => present }
package {'golang-go': ensure => present }
package {'spamassassin': ensure => present }
`

const diffHeadManifest = `
package {'git': ensure => present }
package {'golang-go': ensure => present }
package {'amavisd-new': ensure => present }
`

func writeManifestNamed(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffUsage: -diff demands exactly two manifests and is incompatible
// with -dot.
func TestDiffUsage(t *testing.T) {
	one := writeManifest(t, okManifest)
	if code, _, _ := runCapture2(t, "-diff", one); code != 2 {
		t.Errorf("-diff with one manifest: exit %d, want 2", code)
	}
	dir := t.TempDir()
	base := writeManifestNamed(t, dir, "base.pp", okManifest)
	head := writeManifestNamed(t, dir, "head.pp", okManifest)
	if code, _, _ := runCapture2(t, "-diff", "-dot", base, head); code != 2 {
		t.Errorf("-diff -dot: exit %d, want 2", code)
	}
}

// TestDiffMode: a full run warms the disk cache; the differential run
// against the edited head inherits the unchanged pair's verdict (one
// pairs-reused, one disk hit) and re-solves only pairs touching the edit.
func TestDiffMode(t *testing.T) {
	dir := t.TempDir()
	base := writeManifestNamed(t, dir, "base.pp", diffBaseManifest)
	head := writeManifestNamed(t, dir, "head.pp", diffHeadManifest)
	cache := filepath.Join(dir, "cache")

	code, out, _ := runCapture2(t, "-semantic-commute", "-skip-idempotence", "-cache-dir", cache, base)
	if code != 0 {
		t.Fatalf("full base run: exit %d:\n%s", code, out)
	}

	code, out, errOut := runCapture2(t, "-diff", "-semantic-commute", "-skip-idempotence",
		"-cache-dir", cache, "-stats", base, head)
	if code != 0 {
		t.Fatalf("diff run: exit %d:\n%s\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "determinism: OK") {
		t.Errorf("diff run verdict:\n%s", out)
	}
	for _, want := range []string{
		"diff-changed=1 diff-unchanged=2",
		"pairs-reused=1",
		"pairs-reverified=2",
		"inherit-misses=0",
		"disk-corrupt=0",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("-stats missing %q:\n%s", want, errOut)
		}
	}

	// The diff run's report must be byte-identical to a full verification
	// of head. The full run reads the same cache directory, so it decides
	// every pair from disk without the diff partition (and without paying
	// for three more solver queries).
	code, fullOut := runCapture(t, "-semantic-commute", "-skip-idempotence", "-cache-dir", cache, head)
	if code != 0 || !strings.Contains(fullOut, "determinism: OK") {
		t.Fatalf("full head run: exit %d:\n%s", code, fullOut)
	}
	if out != fullOut {
		t.Errorf("diff run stdout differs from the full head run:\ndiff:\n%s\nfull:\n%s", out, fullOut)
	}
}

// TestDiffJSON: -diff -json emits the service report schema with the diff
// partition and pair-reuse counters filled in.
func TestDiffJSON(t *testing.T) {
	dir := t.TempDir()
	base := writeManifestNamed(t, dir, "base.pp", diffBaseManifest)
	head := writeManifestNamed(t, dir, "head.pp", diffHeadManifest)
	cache := filepath.Join(dir, "cache")

	if code, out, _ := runCapture2(t, "-semantic-commute", "-skip-idempotence", "-cache-dir", cache, base); code != 0 {
		t.Fatalf("full base run: exit %d:\n%s", code, out)
	}
	code, out, errOut := runCapture2(t, "-diff", "-json", "-semantic-commute", "-skip-idempotence",
		"-cache-dir", cache, base, head)
	if code != 0 {
		t.Fatalf("diff -json: exit %d:\n%s\n%s", code, out, errOut)
	}
	var rep service.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, out)
	}
	if rep.Verdict != service.VerdictPass || rep.Stats == nil {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Stats.DiffChanged != 1 || rep.Stats.DiffUnchanged != 2 {
		t.Errorf("diff partition: changed=%d unchanged=%d", rep.Stats.DiffChanged, rep.Stats.DiffUnchanged)
	}
	// Each run has its own substrate, so the diff run starts with a cold
	// memory tier: the unchanged pair comes from disk, the two changed
	// pairs from the solver.
	if rep.Stats.PairsReused != 1 || rep.Stats.PairsReverified != 2 || rep.Stats.InheritMisses != 0 {
		t.Errorf("pair accounting: reused=%d reverified=%d misses=%d",
			rep.Stats.PairsReused, rep.Stats.PairsReverified, rep.Stats.InheritMisses)
	}
}

// countFiles counts the regular files under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCacheDirScopedToRun: -cache-dir attaches the disk tier to one run's
// substrate only. A later run in the same process without -cache-dir
// must not write its verdicts into that directory.
func TestCacheDirScopedToRun(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	// gcc depends on make and ocaml on m4, so each manifest's one pair
	// conflicts syntactically and costs a solver query; the pairs differ.
	first := writeManifestNamed(t, dir, "first.pp", "package {'make': ensure => present }\npackage {'gcc': ensure => present }\n")
	second := writeManifestNamed(t, dir, "second.pp", "package {'m4': ensure => present }\npackage {'ocaml': ensure => present }\n")

	if code, out, errOut := runCapture2(t, "-semantic-commute", "-skip-idempotence", "-cache-dir", cache, first); code != 0 {
		t.Fatalf("run with -cache-dir: exit %d:\n%s\n%s", code, out, errOut)
	}
	before := countFiles(t, cache)
	if before == 0 {
		t.Fatal("run with -cache-dir wrote no verdict files")
	}
	code, out, errOut := runCapture2(t, "-semantic-commute", "-skip-idempotence", "-v", second)
	if code != 0 {
		t.Fatalf("run without -cache-dir: exit %d:\n%s\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "solver-queries=") || strings.Contains(out, "solver-queries=0 ") {
		t.Fatalf("second run solved no new pairs, so it cannot show a leak:\n%s", out)
	}
	if after := countFiles(t, cache); after != before {
		t.Errorf("a run without -cache-dir changed the cache directory: %d -> %d files", before, after)
	}
}

// TestTimeoutExitCode: a check that runs out of time exits 3, labelled by
// the stage in text mode and by the error class in JSON mode.
func TestTimeoutExitCode(t *testing.T) {
	path := writeManifest(t, okManifest)
	code, out := runCapture(t, "-timeout", "1ns", path)
	if code != 3 || !strings.Contains(out, "determinism: TIMEOUT") {
		t.Errorf("text: exit %d, want 3 and a TIMEOUT line:\n%s", code, out)
	}
	code, out = runCapture(t, "-json", "-timeout", "1ns", path)
	if code != 3 {
		t.Errorf("json: exit %d, want 3:\n%s", code, out)
	}
	var rep service.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, out)
	}
	if rep.Error == nil || rep.Error.Class != service.ClassTimeout {
		t.Errorf("json error = %+v, want class %q", rep.Error, service.ClassTimeout)
	}
}
