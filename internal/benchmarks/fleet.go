package benchmarks

import (
	"fmt"
	"math/rand"
	"strings"
)

// FleetFault is the planted defect of a generated fleet manifest; the
// verdict each one must get is known by construction.
type FleetFault int

const (
	// FleetNone: every dependency is declared; deterministic.
	FleetNone FleetFault = iota
	// FleetLocalDep: a file under a managed user's home directory lacks
	// its require on the user; non-deterministic.
	FleetLocalDep
	// FleetPkgConfig: ntp's configuration file lacks its require on the
	// packages (the ntp-nondet shape at fleet scale); non-deterministic.
	FleetPkgConfig
)

var fleetFaultNames = [...]string{"none", "local-dep", "pkg-config"}

func (f FleetFault) String() string { return fleetFaultNames[f] }

// Deterministic is the verdict a manifest with this fault must get.
func (f FleetFault) Deterministic() bool { return f == FleetNone }

// fleetPackages are catalog packages shipping the configuration file a
// fleet manifest overwrites; the first is the one FleetPkgConfig breaks.
var fleetPackages = []struct{ name, conf string }{
	{"ntp", "/etc/ntp.conf"},
	{"rsyslog", "/etc/rsyslog.conf"},
	{"monit", "/etc/monit/monitrc"},
	{"postfix", "/etc/postfix/main.cf"},
	{"xinetd", "/etc/xinetd.conf"},
}

// Fleet generates a fleet-shaped manifest of about n resources with one
// planted fault: three classes chained base → people → sites, the way a
// site layers role manifests. base installs a handful of catalog packages
// with their configuration files and subscribed services, people declares
// one user (managehome, ssh key, profile file) per twelve resources, and
// sites fills the rest with directories of thirty files each. Names and
// contents come from seed; the shape comes from n.
func Fleet(n int, f FleetFault, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	users := n / 12
	const files = 30
	sites := max(1, (n-3*len(fleetPackages)-3*users-1)/(files+1))

	var b strings.Builder
	fmt.Fprintf(&b, "# generated fleet %x: fault %s\n", seed, f)
	b.WriteString("class base {\n")
	pkgs := make([]string, 0, len(fleetPackages))
	for _, p := range fleetPackages {
		pkgs = append(pkgs, fmt.Sprintf("Package['%s']", p.name))
	}
	allPkgs := strings.Join(pkgs, ", ")
	for i, p := range fleetPackages {
		fmt.Fprintf(&b, "  package { '%s': ensure => present }\n", p.name)
		req := fmt.Sprintf(",\n    require => [%s]", allPkgs)
		if f == FleetPkgConfig && i == 0 {
			req = ""
		}
		fmt.Fprintf(&b, "  file { '%s':\n    content => 'managed %x %d'%s,\n  }\n", p.conf, seed, i, req)
		fmt.Fprintf(&b, "  service { '%s':\n    ensure => running,\n    subscribe => File['%s'],\n  }\n", p.name, p.conf)
	}
	b.WriteString("}\n\nclass people {\n")
	faultyUser := rng.Intn(max(1, users))
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("u%d%s", i, fleetWord(rng))
		fmt.Fprintf(&b, "  user { '%s':\n    ensure => present,\n    managehome => true,\n  }\n", u)
		fmt.Fprintf(&b, "  ssh_authorized_key { '%s-key':\n    user => '%s',\n    key => '%x',\n    require => User['%s'],\n  }\n", u, u, rng.Int63(), u)
		req := fmt.Sprintf(",\n    require => Ssh_authorized_key['%s-key']", u)
		if f == FleetLocalDep && i == faultyUser {
			req = ""
		}
		fmt.Fprintf(&b, "  file { '/home/%s/.profile':\n    content => 'export PS1=%s'%s,\n  }\n", u, fleetWord(rng), req)
	}
	b.WriteString("}\n\nclass sites {\n  file { '/srv': ensure => directory }\n")
	for i := 0; i < sites; i++ {
		dir := fmt.Sprintf("/srv/s%d%s", i, fleetWord(rng))
		fmt.Fprintf(&b, "  file { '%s': ensure => directory }\n", dir)
		for j := 0; j < files; j++ {
			fmt.Fprintf(&b, "  file { '%s/f%d.conf': content => '%s' }\n", dir, j, fleetWord(rng))
		}
	}
	b.WriteString("}\n\ninclude base, people, sites\nClass['base'] -> Class['people'] -> Class['sites']\n")
	return b.String()
}

// fleetWord is a short seeded lowercase token.
func fleetWord(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var b [5]byte
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b[:])
}
