package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// fault is the planted defect of a generated fleet manifest; the verdict
// each one must get is known by construction.
type fault int

const (
	// faultNone: every dependency is declared; deterministic.
	faultNone fault = iota
	// faultLocalDep: a file under a managed user's home directory lacks
	// its require on the user, so creating it can run before the home
	// directory exists; non-deterministic.
	faultLocalDep
	// faultPkgConfig: a package-owned configuration file lacks its
	// require on the package (the ntp-nondet shape) inside a fleet of
	// several packages; non-deterministic.
	faultPkgConfig
)

var faultNames = [...]string{"none", "local-dep", "pkg-config"}

func (f fault) String() string { return faultNames[f] }

// deterministic is the verdict a manifest with this fault must get.
func (f fault) deterministic() bool { return f == faultNone }

// fleetPackages are catalog packages that ship the configuration file a
// fleet manifest overwrites, as a site's role manifests do.
var fleetPackages = []fleetPkg{
	{"ntp", "/etc/ntp.conf"},
	{"rsyslog", "/etc/rsyslog.conf"},
	{"monit", "/etc/monit/monitrc"},
	{"postfix", "/etc/postfix/main.cf"},
	{"xinetd", "/etc/xinetd.conf"},
}

// fleetPkg is a package a fleet manifest installs; conf, when set, is the
// package-owned configuration file the manifest overwrites (with a
// service subscribed to it).
type fleetPkg struct{ name, conf string }

// fleetSpec sizes one generated fleet manifest.
type fleetSpec struct {
	pkgs  []fleetPkg
	users int // users with managehome, an ssh key and a profile file
	sites int // directories under /srv
	files int // config files per site directory
}

// faultyPkg indexes the package whose configuration file loses its
// require under faultPkgConfig: ntp, the ntp-nondet shape.
const faultyPkg = 0

// fleetSpecFor returns a spec of about n resources: a fixed handful of
// packages, one user per twelve resources, the rest site directories of
// thirty files each.
func fleetSpecFor(n int) fleetSpec {
	s := fleetSpec{pkgs: fleetPackages, users: n / 12, files: 30}
	rest := n - 3*len(s.pkgs) - 3*s.users - 1
	s.sites = max(1, rest/(s.files+1))
	return s
}

// resources is the number of resources a manifest of this spec declares.
func (s fleetSpec) resources() int {
	n := 3*s.users + 1 + s.sites*(s.files+1)
	for _, p := range s.pkgs {
		n++
		if p.conf != "" {
			n += 2
		}
	}
	return n
}

// genFleet writes a fleet manifest with one planted fault. Names, contents
// and the faulty resource come from rng; the shape comes from spec.
func genFleet(rng *rand.Rand, spec fleetSpec, f fault) string {
	var b strings.Builder
	tag := rng.Int63()
	fmt.Fprintf(&b, "# generated fleet %x: %d resources, fault %s\n", tag, spec.resources(), f)

	// Three classes chained base -> people -> sites, the way a site layers
	// role manifests: packages and their configuration first, then
	// accounts, then application trees.
	b.WriteString("class base {\n")
	var pkgs []string
	for _, p := range spec.pkgs {
		pkgs = append(pkgs, fmt.Sprintf("Package['%s']", p.name))
	}
	allPkgs := strings.Join(pkgs, ", ")
	for i, p := range spec.pkgs {
		fmt.Fprintf(&b, "  package { '%s': ensure => present }\n", p.name)
		if p.conf == "" {
			continue
		}
		req := fmt.Sprintf(",\n    require => [%s]", allPkgs)
		if f == faultPkgConfig && i == faultyPkg {
			req = ""
		}
		fmt.Fprintf(&b, "  file { '%s':\n    content => 'managed %x %d'%s,\n  }\n", p.conf, tag, i, req)
		fmt.Fprintf(&b, "  service { '%s':\n    ensure => running,\n    subscribe => File['%s'],\n  }\n", p.name, p.conf)
	}
	b.WriteString("}\n\nclass people {\n")

	faultyUser := rng.Intn(max(1, spec.users))
	for i := 0; i < spec.users; i++ {
		u := fmt.Sprintf("u%d%s", i, word(rng))
		fmt.Fprintf(&b, "  user { '%s':\n    ensure => present,\n    managehome => true,\n  }\n", u)
		fmt.Fprintf(&b, "  ssh_authorized_key { '%s-key':\n    user => '%s',\n    key => '%x',\n    require => User['%s'],\n  }\n", u, u, rng.Int63(), u)
		req := fmt.Sprintf(",\n    require => Ssh_authorized_key['%s-key']", u)
		if f == faultLocalDep && i == faultyUser {
			req = ""
		}
		fmt.Fprintf(&b, "  file { '/home/%s/.profile':\n    content => 'export PS1=%s'%s,\n  }\n", u, word(rng), req)
	}
	b.WriteString("}\n\nclass sites {\n  file { '/srv': ensure => directory }\n")
	for i := 0; i < spec.sites; i++ {
		dir := fmt.Sprintf("/srv/s%d%s", i, word(rng))
		fmt.Fprintf(&b, "  file { '%s': ensure => directory }\n", dir)
		for j := 0; j < spec.files; j++ {
			fmt.Fprintf(&b, "  file { '%s/f%d.conf': content => '%s' }\n", dir, j, word(rng))
		}
	}
	b.WriteString("}\n\ninclude base, people, sites\nClass['base'] -> Class['people'] -> Class['sites']\n")
	return b.String()
}

// reword returns src with a different leading comment: a new digest for
// the same resources.
func reword(src string, rng *rand.Rand) string {
	return fmt.Sprintf("# reworded %x\n%s", rng.Int63(), src)
}

// word is a short seeded lowercase token.
func word(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var b [5]byte
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b[:])
}
