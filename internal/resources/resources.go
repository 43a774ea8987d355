// Package resources implements the compilation function C : R → e of
// section 3.3: each primitive Puppet resource becomes an FS program that
// validates its attributes, checks its preconditions and applies its
// effect. The models follow the paper:
//
//   - file manages files and directories, with content or copy sources;
//   - package expands to the directory tree and file list of the package
//     and its dependency closure (queried from pkgdb, the stand-in for the
//     paper's apt-file/repoquery web service), each file with unique
//     contents, guarded by an installed-marker per package — which
//     reproduces both the fig-3c silent failure and stale-inventory
//     non-idempotence;
//   - ssh_authorized_key places each key in its own file under a
//     directory-modeled authorized_keys with unique content, and requires
//     the owning user to exist;
//   - user, group, service, cron and host manage marker files in disjoint
//     portions of the filesystem;
//   - exec is rejected (section 8: shell scripts have arbitrary effects).
package resources

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/pkgdb"
	"repro/internal/puppet"
)

// Well-known model locations.
const (
	// PkgMarkerDir holds one marker file per installed package; its
	// presence is the model of the package manager's installed state.
	PkgMarkerDir fs.Path = "/var/lib/pkgdb"
	// UserDir holds one marker file per existing user account.
	UserDir fs.Path = "/etc/users"
	// GroupDir holds one marker file per existing group.
	GroupDir fs.Path = "/etc/groups"
	// ServiceDir holds one state file per managed service.
	ServiceDir fs.Path = "/var/run/services"
	// CronDir holds one file per cron job.
	CronDir fs.Path = "/var/spool/cron/jobs"
	// HostsDir holds one file per managed host entry (the logical
	// structure of /etc/hosts, per the ssh-key modeling technique).
	HostsDir fs.Path = "/etc/hosts.d"
	// FstabDir holds one file per managed mount (the logical structure of
	// /etc/fstab, same technique).
	FstabDir fs.Path = "/etc/fstab.d"
)

// Compiler compiles resources for one platform.
type Compiler struct {
	provider pkgdb.Provider
	platform string
}

// NewCompiler creates a compiler that models packages using the given
// provider and platform.
func NewCompiler(provider pkgdb.Provider, platform string) *Compiler {
	return &Compiler{provider: provider, platform: platform}
}

// Platform returns the platform the compiler models.
func (c *Compiler) Platform() string { return c.platform }

// Compile translates one primitive resource into its FS model.
func (c *Compiler) Compile(r *puppet.Resource) (fs.Expr, error) {
	switch r.Type {
	case "file":
		return c.compileFile(r)
	case "package":
		return c.compilePackage(r)
	case "user":
		return c.compileUser(r)
	case "group":
		return c.compileGroup(r)
	case "service":
		return c.compileService(r)
	case "ssh_authorized_key":
		return c.compileSSHKey(r)
	case "cron":
		return c.compileCron(r)
	case "host":
		return c.compileHost(r)
	case "mount":
		return c.compileMount(r)
	case "notify":
		return fs.Id{}, nil
	case "exec":
		return nil, fmt.Errorf("%s: exec resources are not supported: shell scripts have arbitrary effects (paper section 8)", r)
	default:
		return nil, fmt.Errorf("%s: unknown resource type %q", r, r.Type)
	}
}

// cosmeticAttrs are accepted on any resource and have no effect in the FS
// model (permissions and ownership are not modeled; see paper section 3.2).
var cosmeticAttrs = map[string]bool{
	"owner": true, "group": true, "mode": true, "backup": true,
	"loglevel": true, "noop": true, "alias": true, "tag": true,
}

// checkAttrs rejects attributes that are neither known nor cosmetic,
// catching typos like "contnet".
func checkAttrs(r *puppet.Resource, known ...string) error {
	ok := make(map[string]bool, len(known))
	for _, k := range known {
		ok[k] = true
	}
	var bad []string
	for name := range r.Attrs {
		if !ok[name] && !cosmeticAttrs[name] {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%s: unknown attribute(s) %s", r, strings.Join(bad, ", "))
	}
	return nil
}

// attrOr returns a string attribute or a default.
func attrOr(r *puppet.Resource, name, def string) string {
	if v, ok := r.AttrString(name); ok {
		return v
	}
	return def
}

// boolAttr interprets an attribute as a boolean.
func boolAttr(r *puppet.Resource, name string) bool {
	v, ok := r.Attrs[name]
	if !ok {
		return false
	}
	if b, isBool := v.(puppet.BoolV); isBool {
		return bool(b)
	}
	return strings.EqualFold(puppet.ValueString(v), "true")
}

// modelPath validates and normalizes a path used by a resource model.
func modelPath(r *puppet.Resource, raw string) (fs.Path, error) {
	if !strings.HasPrefix(raw, "/") {
		return "", fmt.Errorf("%s: path %q is not absolute", r, raw)
	}
	p := fs.ParsePath(raw)
	if p.IsRoot() {
		return "", fmt.Errorf("%s: cannot manage the root directory", r)
	}
	for _, component := range strings.Split(string(p), "/") {
		if component == fs.FreshChildName {
			return "", fmt.Errorf("%s: path %q uses the reserved component %q", r, raw, fs.FreshChildName)
		}
	}
	return p, nil
}

// nameComponent validates a single path component derived from a title or
// name attribute.
func nameComponent(r *puppet.Resource, what, raw string) (string, error) {
	if raw == "" || strings.Contains(raw, "/") || raw == fs.FreshChildName {
		return "", fmt.Errorf("%s: invalid %s %q", r, what, raw)
	}
	return raw, nil
}

// ensureTree emits guarded mkdirs for p and every ancestor, root-first —
// the idempotent directory-creation idiom the commutativity analysis
// recognizes as a D effect (section 4.3).
func ensureTree(p fs.Path) fs.Expr {
	var parts []fs.Expr
	for _, q := range p.Ancestors() {
		parts = append(parts, fs.MkdirIfMissing(q))
	}
	parts = append(parts, fs.MkdirIfMissing(p))
	return fs.SeqAll(parts...)
}

// overwriteFile emits the idempotent file-overwrite idiom: remove an
// existing file, then create with the given contents. It errors when the
// path is a directory or the parent is missing, matching Puppet.
func overwriteFile(p fs.Path, content string) fs.Expr {
	return fs.SeqAll(
		fs.Guard(fs.IsFile{Path: p}, fs.Rm{Path: p}),
		fs.Creat{Path: p, Content: content},
	)
}

// removeFileIfPresent removes a file when present; errors when the path is
// a directory.
func removeFileIfPresent(p fs.Path) fs.Expr {
	return fs.If{
		A:    fs.IsNone{Path: p},
		Then: fs.Id{},
		Else: fs.Rm{Path: p},
	}
}

func (c *Compiler) compileFile(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "path", "ensure", "content", "source", "target", "force", "recurse", "purge", "replace"); err != nil {
		return nil, err
	}
	p, err := modelPath(r, attrOr(r, "path", r.Title))
	if err != nil {
		return nil, err
	}
	content, hasContent := r.AttrString("content")
	source, hasSource := r.AttrString("source")
	if hasContent && hasSource {
		return nil, fmt.Errorf("%s: content and source are mutually exclusive", r)
	}
	ensure := attrOr(r, "ensure", "")
	if ensure == "" {
		if hasContent || hasSource {
			ensure = "file"
		} else {
			ensure = "present"
		}
	}
	switch ensure {
	case "file", "present":
		if hasSource {
			src, err := modelPath(r, source)
			if err != nil {
				return nil, err
			}
			return fs.SeqAll(
				fs.Guard(fs.IsFile{Path: p}, fs.Rm{Path: p}),
				fs.Cp{Src: src, Dst: p},
			), nil
		}
		return overwriteFile(p, content), nil
	case "directory":
		if hasContent {
			return nil, fmt.Errorf("%s: a directory cannot have content", r)
		}
		// Unlike package models, a single file resource manages exactly one
		// directory and fails if the parent is absent (Puppet behavior).
		return fs.MkdirIfMissing(p), nil
	case "link":
		// FS has no symlink value (the paper's model omits links for
		// portability); a link is modeled as a regular file whose content
		// records the target, which preserves every interaction the
		// analyses observe: creation requires the parent, overwrites
		// conflict, and two links to different targets do not commute.
		target, ok := r.AttrString("target")
		if !ok {
			return nil, fmt.Errorf("%s: ensure => link requires a target", r)
		}
		return overwriteFile(p, "symlink:"+target), nil
	case "absent":
		// Removes a file or an empty directory; errors on a non-empty
		// directory (Puppet requires force/purge for recursive deletion,
		// which the model does not support).
		return fs.If{A: fs.IsNone{Path: p}, Then: fs.Id{}, Else: fs.Rm{Path: p}}, nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

// pkgContent is the unique content token for a package-installed file
// (section 3.3: "we simply give every file p in a package a unique
// content").
func pkgContent(pkg, file string) string { return "pkg:" + pkg + ":" + file }

// markerPath is the installed-marker of a package.
func markerPath(name string) fs.Path { return PkgMarkerDir.Join(name) }

// installPackageFiles builds the unguarded install block of one package:
// directory tree root-first, then every file with unique content, then the
// installed marker.
func installPackageFiles(p *pkgdb.Package) fs.Expr {
	parts := make([]fs.Expr, 0, len(p.Dirs)+len(p.Files)+1)
	for _, d := range p.Dirs {
		parts = append(parts, fs.MkdirIfMissing(fs.ParsePath(d)))
	}
	for _, f := range p.Files {
		parts = append(parts, fs.Creat{Path: fs.ParsePath(f), Content: pkgContent(p.Name, f)})
	}
	parts = append(parts, fs.Creat{Path: markerPath(p.Name), Content: "installed:" + p.Name})
	return fs.SeqAll(parts...)
}

func (c *Compiler) compilePackage(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "provider", "source", "responsefile", "install_options"); err != nil {
		return nil, err
	}
	name, err := nameComponent(r, "package name", attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	ensure := attrOr(r, "ensure", "present")
	switch ensure {
	case "present", "installed", "latest":
		closure, err := c.provider.Closure(c.platform, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r, err)
		}
		// Mirror the package manager: if the requested package is already
		// installed, do nothing — even when its dependencies have been
		// removed since. This check-then-act is what makes fig 3c
		// manifests non-idempotent.
		var install []fs.Expr
		for _, p := range closure {
			if p.Name == name {
				install = append(install, installPackageFiles(p))
				continue
			}
			install = append(install, fs.Guard(
				fs.Not{P: fs.IsFile{Path: markerPath(p.Name)}},
				installPackageFiles(p),
			))
		}
		return fs.SeqAll(
			ensureTree(PkgMarkerDir),
			fs.Guard(
				fs.Not{P: fs.IsFile{Path: markerPath(name)}},
				fs.SeqAll(install...),
			),
		), nil
	case "absent", "purged":
		// Remove only the named package's own files, like the low-level
		// "dpkg -r": cascading removal of dependents is the package
		// manager's hidden behavior that the model (like apt-file) cannot
		// see — which is exactly what makes fig 3c a silent failure.
		pkg, err := c.provider.Lookup(c.platform, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r, err)
		}
		var remove []fs.Expr
		for i := len(pkg.Files) - 1; i >= 0; i-- {
			remove = append(remove, removeFileIfPresent(fs.ParsePath(pkg.Files[i])))
		}
		remove = append(remove, fs.Rm{Path: markerPath(name)})
		return fs.SeqAll(
			ensureTree(PkgMarkerDir),
			fs.Guard(fs.IsFile{Path: markerPath(name)}, fs.SeqAll(remove...)),
		), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

func (c *Compiler) compileUser(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "managehome", "home", "shell", "uid", "gid", "groups", "comment", "password"); err != nil {
		return nil, err
	}
	name, err := nameComponent(r, "user name", attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	marker := UserDir.Join(name)
	switch ensure := attrOr(r, "ensure", "present"); ensure {
	case "present":
		parts := []fs.Expr{
			ensureTree(UserDir),
			fs.Guard(fs.Not{P: fs.IsFile{Path: marker}}, fs.Creat{Path: marker, Content: "user:" + name}),
		}
		if boolAttr(r, "managehome") {
			home, err := modelPath(r, attrOr(r, "home", "/home/"+name))
			if err != nil {
				return nil, err
			}
			parts = append(parts, ensureTree(home))
		}
		return fs.SeqAll(parts...), nil
	case "absent":
		// Removing an account does not remove the home directory (userdel
		// without -r).
		return fs.SeqAll(
			ensureTree(UserDir),
			removeFileIfPresent(marker),
		), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

func (c *Compiler) compileGroup(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "gid", "members"); err != nil {
		return nil, err
	}
	name, err := nameComponent(r, "group name", attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	marker := GroupDir.Join(name)
	switch ensure := attrOr(r, "ensure", "present"); ensure {
	case "present":
		return fs.SeqAll(
			ensureTree(GroupDir),
			fs.Guard(fs.Not{P: fs.IsFile{Path: marker}}, fs.Creat{Path: marker, Content: "group:" + name}),
		), nil
	case "absent":
		return fs.SeqAll(
			ensureTree(GroupDir),
			removeFileIfPresent(marker),
		), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

func (c *Compiler) compileService(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "enable", "binary", "hasrestart", "hasstatus", "restart", "start", "stop", "status"); err != nil {
		return nil, err
	}
	name, err := nameComponent(r, "service name", attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	state := attrOr(r, "ensure", "running")
	switch state {
	case "running", "true":
		state = "running"
	case "stopped", "false":
		state = "stopped"
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, state)
	}
	var parts []fs.Expr
	// Starting a service requires its binary when one is declared; this
	// models "service fails to start because the package is missing".
	if bin, ok := r.AttrString("binary"); ok && state == "running" {
		binPath, err := modelPath(r, bin)
		if err != nil {
			return nil, err
		}
		parts = append(parts, fs.If{A: fs.IsFile{Path: binPath}, Then: fs.Id{}, Else: fs.Err{}})
	}
	parts = append(parts,
		ensureTree(ServiceDir),
		overwriteFile(ServiceDir.Join(name), "service:"+name+":"+state),
	)
	return fs.SeqAll(parts...), nil
}

func (c *Compiler) compileSSHKey(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "user", "type", "key", "options", "target"); err != nil {
		return nil, err
	}
	user, ok := r.AttrString("user")
	if !ok {
		return nil, fmt.Errorf("%s: ssh_authorized_key requires a user attribute", r)
	}
	if _, err := nameComponent(r, "user name", user); err != nil {
		return nil, err
	}
	title, err := nameComponent(r, "key title", strings.ReplaceAll(attrOr(r, "name", r.Title), " ", "_"))
	if err != nil {
		return nil, err
	}
	// The authorized_keys file is modeled as a *directory* holding one
	// file per key with unique content (section 3.3): keys for the same
	// user leave each other's entries alone, while a file resource
	// overwriting /home/u/.ssh/authorized_keys conflicts with the whole
	// set. Because Puppet rewrites the authorized_keys file when managing
	// keys, the model converts a plain file at that path into the managed
	// directory — which is what makes the file-vs-key conflict
	// *asymmetric* (key-then-file errors, file-then-key succeeds) and
	// therefore detectable as non-determinism.
	keyDir := fs.MakePath("home", user, ".ssh", "authorized_keys")
	keyFile := keyDir.Join(title)
	content := "sshkey:" + user + ":" + title + ":" + attrOr(r, "key", "")
	switch ensure := attrOr(r, "ensure", "present"); ensure {
	case "present":
		return fs.SeqAll(
			// The owning account must exist; the home directory tree is
			// ensured (idempotently) below it.
			fs.If{A: fs.IsFile{Path: UserDir.Join(user)}, Then: fs.Id{}, Else: fs.Err{}},
			ensureTree(keyDir.Parent()),
			fs.Guard(fs.IsFile{Path: keyDir}, fs.Rm{Path: keyDir}),
			fs.MkdirIfMissing(keyDir),
			overwriteFile(keyFile, content),
		), nil
	case "absent":
		return removeFileIfPresent(keyFile), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

func (c *Compiler) compileCron(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "command", "user", "minute", "hour", "monthday", "month", "weekday"); err != nil {
		return nil, err
	}
	title, err := nameComponent(r, "cron title", strings.ReplaceAll(attrOr(r, "name", r.Title), " ", "_"))
	if err != nil {
		return nil, err
	}
	jobFile := CronDir.Join(title)
	switch ensure := attrOr(r, "ensure", "present"); ensure {
	case "present":
		content := fmt.Sprintf("cron:%s:%s %s %s %s %s %s",
			attrOr(r, "user", "root"),
			attrOr(r, "minute", "*"), attrOr(r, "hour", "*"),
			attrOr(r, "monthday", "*"), attrOr(r, "month", "*"),
			attrOr(r, "weekday", "*"), attrOr(r, "command", ""))
		return fs.SeqAll(
			ensureTree(CronDir),
			overwriteFile(jobFile, content),
		), nil
	case "absent":
		return removeFileIfPresent(jobFile), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

// compileMount models a mount: an fstab entry (one file per mount in
// FstabDir, like the ssh-key technique) plus, when mounted, the mountpoint
// directory itself — which must already exist, matching mount(8).
func (c *Compiler) compileMount(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "device", "fstype", "options", "atboot", "dump", "pass", "remounts"); err != nil {
		return nil, err
	}
	point, err := modelPath(r, attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	entry := FstabDir.Join(strings.ReplaceAll(strings.TrimPrefix(string(point), "/"), "/", "-"))
	content := fmt.Sprintf("mount:%s:%s:%s:%s",
		attrOr(r, "device", ""), point, attrOr(r, "fstype", "auto"), attrOr(r, "options", "defaults"))
	switch ensure := attrOr(r, "ensure", "mounted"); ensure {
	case "mounted":
		return fs.SeqAll(
			// Mounting requires an existing mountpoint directory.
			fs.If{A: fs.IsDir{Path: point}, Then: fs.Id{}, Else: fs.Err{}},
			ensureTree(FstabDir),
			overwriteFile(entry, content),
		), nil
	case "present", "unmounted":
		// Entry managed without touching the mountpoint.
		return fs.SeqAll(
			ensureTree(FstabDir),
			overwriteFile(entry, content),
		), nil
	case "absent":
		return removeFileIfPresent(entry), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}

func (c *Compiler) compileHost(r *puppet.Resource) (fs.Expr, error) {
	if err := checkAttrs(r, "name", "ensure", "ip", "host_aliases", "target"); err != nil {
		return nil, err
	}
	name, err := nameComponent(r, "host name", attrOr(r, "name", r.Title))
	if err != nil {
		return nil, err
	}
	entry := HostsDir.Join(name)
	switch ensure := attrOr(r, "ensure", "present"); ensure {
	case "present":
		content := "host:" + name + ":" + attrOr(r, "ip", "") + ":" + attrOr(r, "host_aliases", "")
		return fs.SeqAll(
			ensureTree(HostsDir),
			overwriteFile(entry, content),
		), nil
	case "absent":
		return removeFileIfPresent(entry), nil
	default:
		return nil, fmt.Errorf("%s: unsupported ensure value %q", r, ensure)
	}
}
