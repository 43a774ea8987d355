// Package core is Rehearsal proper: it wires the Puppet frontend, the
// resource compiler and the analyses into the verification pipeline of the
// paper — manifest → resource graph (section 3) → determinacy check
// (section 4) → idempotence and invariant checks (section 5).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/commute"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/pkgdb"
	"repro/internal/puppet"
	"repro/internal/qcache"
	"repro/internal/resources"
)

// ErrTimeout reports that an analysis exceeded its deadline, mirroring the
// paper's 10-minute benchmark timeout.
var ErrTimeout = errors.New("core: analysis timed out")

// Options configures the pipeline and the determinacy analysis. The three
// analysis switches correspond to the paper's ablations (figure 11):
// commutativity-based partial-order reduction (section 4.3), resource
// elimination and path pruning (section 4.4).
type Options struct {
	// Platform selects the package catalog and facts: "ubuntu" (default)
	// or "centos".
	Platform string
	// Provider supplies package listings; defaults to the built-in
	// synthetic catalog, built once per process and shared read-only.
	Provider pkgdb.Provider
	// Facts overrides the platform-derived facts.
	Facts map[string]puppet.Value
	// NodeName selects which node block applies (default "default").
	NodeName string

	// Commutativity enables partial-order reduction (figure 9a).
	Commutativity bool
	// DisableSleepSets turns off the sleep-set refinement of the
	// partial-order reduction, leaving only the paper's pivot rule. With
	// sleep sets off, a single conflicting pair among otherwise-commuting
	// resources forces a factorial exploration (an ablation knob; see
	// DESIGN.md).
	DisableSleepSets bool
	// WellFormedInit restricts the quantified initial filesystems to
	// well-formed trees (every present path's modeled ancestors are
	// directories). The paper's definition 1 quantifies over arbitrary
	// maps; real machines are always well-formed, so this option can only
	// remove counterexamples no machine could exhibit. Off by default for
	// paper fidelity.
	WellFormedInit bool
	// SemanticCommute falls back to a solver-based pairwise equivalence
	// check (e1;e2 ≡ e2;e1) when the syntactic commutativity analysis of
	// figure 9b cannot prove a pair commutes. This goes beyond the paper:
	// it proves, for example, that two package resources with overlapping
	// dependency closures commute (both guard shared dependencies with the
	// same installed-marker check), collapsing their traces. Results are
	// cached per pair; inconclusive checks (budget exhausted) count as
	// non-commuting, so the option never affects soundness.
	SemanticCommute bool
	// Elimination enables removing resources that commute with everything
	// that may run after them (section 4.4).
	Elimination bool
	// Pruning enables dropping single-writer definitive writes
	// (figure 10).
	Pruning bool

	// Timeout bounds each check's wall-clock time; 0 means none.
	Timeout time.Duration
	// Context, when non-nil, cancels the analysis from outside: package
	// lookups made while compiling resources observe it (via
	// pkgdb.BindContext, when the Provider supports contexts), in-flight
	// parallel commutativity fan-outs stop scheduling new queries, and
	// CheckDeterminism returns an error wrapping ErrCanceled instead of a
	// verdict. Nil means the analysis only stops on Timeout.
	Context context.Context
	// MaxSequences caps the number of linearizations the checker encodes
	// before giving up with an error that wraps ErrTimeout and names the
	// cap; 0 means the default of 20000.
	MaxSequences int
	// Parallelism bounds the worker pool that fans independent semantic-
	// commutativity queries (each an isolated encoder+solver) across
	// cores; 0 means runtime.GOMAXPROCS(0). Verdicts are identical at any
	// setting: queries are deterministic and the authoritative analysis
	// order stays sequential (see DESIGN.md, "Parallel determinacy
	// engine").
	Parallelism int
	// SharedQueryCache selects the process-wide content-addressed cache
	// (internal/qcache) for semantic-commutativity verdicts, so checks of
	// manifests with overlapping resources never re-solve the same pair.
	// Nil means qcache.Shared(); benchmarks inject a private cache to
	// measure cold-cache behavior.
	SharedQueryCache *qcache.Cache
	// FreshSolvers disables the incremental solver pool and builds an
	// isolated vocabulary, encoder and solver for every semantic-
	// commutativity query. Verdicts are identical either way (the
	// differential tests enforce it); the fresh path exists as the
	// baseline for those tests and for the incremental benchmark.
	FreshSolvers bool
}

// DefaultOptions enables every analysis, matching the configuration the
// paper evaluates as "Rehearsal".
func DefaultOptions() Options {
	return Options{
		Platform:      "ubuntu",
		Commutativity: true,
		Elimination:   true,
		Pruning:       true,
	}
}

// defaultCatalog is the built-in catalog every Options without a Provider
// shares. Building it costs tens of thousands of allocations, and
// compilation only reads it, so one per process serves every check.
// Callers that Add packages build their own with pkgdb.DefaultCatalog.
var defaultCatalog = sync.OnceValue(func() pkgdb.Provider { return pkgdb.DefaultCatalog() })

func (o Options) withDefaults() Options {
	if o.Platform == "" {
		o.Platform = "ubuntu"
	}
	if o.Provider == nil {
		o.Provider = defaultCatalog()
	}
	if o.MaxSequences == 0 {
		o.MaxSequences = 20000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.SharedQueryCache == nil {
		o.SharedQueryCache = qcache.Shared()
	}
	return o
}

// PlatformFacts returns the fact set for a platform, used by the evaluator
// for $operatingsystem-style conditionals.
func PlatformFacts(platform string) map[string]puppet.Value {
	switch platform {
	case "centos":
		return map[string]puppet.Value{
			"operatingsystem":        puppet.StrV("CentOS"),
			"osfamily":               puppet.StrV("RedHat"),
			"operatingsystemrelease": puppet.StrV("7"),
			"kernel":                 puppet.StrV("Linux"),
		}
	default:
		return map[string]puppet.Value{
			"operatingsystem":        puppet.StrV("Ubuntu"),
			"osfamily":               puppet.StrV("Debian"),
			"operatingsystemrelease": puppet.StrV("14.04"),
			"kernel":                 puppet.StrV("Linux"),
		}
	}
}

// node is one vertex of the compiled resource graph: a resource, or a
// barrier that links the two sides of a dependency between many resources
// in linear space (see connect in FromCatalog).
type node struct {
	res  *puppet.Resource // nil for a barrier
	expr fs.Expr          // compiled FS model, possibly pruned
	orig fs.Expr          // unpruned model, used for replay and idempotence
	sum  *commute.Summary
}

// barrier reports whether the vertex is a barrier rather than a resource.
// A barrier's model is Id: it touches no path, so it commutes with every
// resource and elimination removes it, without a query, once its
// dependents are gone.
func (n *node) barrier() bool { return n.res == nil }

// barrierSum is the (empty) effect summary every barrier shares.
var barrierSum = commute.Analyze(fs.Id{})

// System is a loaded manifest: the catalog and the compiled resource graph
// of figure 4.
type System struct {
	Catalog *puppet.Catalog
	opts    Options
	g       *graph.Graph[*node]
}

// Load parses, evaluates and compiles a manifest.
func Load(src string, opts Options) (*System, error) {
	opts = opts.withDefaults()
	facts := opts.Facts
	if facts == nil {
		facts = PlatformFacts(opts.Platform)
	}
	cat, err := puppet.EvaluateSource(src, puppet.Config{Facts: facts, NodeName: opts.NodeName})
	if err != nil {
		return nil, err
	}
	return FromCatalog(cat, opts)
}

// FromCatalog compiles an already-evaluated catalog into a System.
func FromCatalog(cat *puppet.Catalog, opts Options) (*System, error) {
	opts = opts.withDefaults()
	provider := opts.Provider
	if opts.Context != nil {
		// Compilation is where package listings are fetched; binding the
		// caller's context means a canceled run stops waiting on the
		// listing service instead of riding out its retry budget.
		provider = pkgdb.BindContext(opts.Context, provider)
	}
	compiler := resources.NewCompiler(provider, opts.Platform)
	// canceled polls the caller's context: a fleet-sized catalog takes
	// seconds to compile and expand, so compilation stops on cancellation
	// like the checks do.
	canceled := func() error {
		if opts.Context == nil {
			return nil
		}
		if cerr := opts.Context.Err(); cerr != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, cerr)
		}
		return nil
	}

	realized := cat.Realized()
	g := graph.New[*node]()
	byKey := make(map[string]graph.Node, len(realized))
	byRes := make(map[*puppet.Resource]graph.Node, len(realized))
	for _, r := range realized {
		if err := canceled(); err != nil {
			return nil, err
		}
		expr, err := compiler.Compile(r)
		if err != nil {
			return nil, err
		}
		n := g.Add(&node{res: r, expr: expr, orig: expr, sum: commute.Analyze(expr)})
		byKey[r.Key()] = n
		byRes[r] = n
	}

	// nodeOf resolves a resource to its vertex. References expand to the
	// catalog's own resource values, so the pointer lookup answers all but
	// unresolved ones without rendering a key.
	nodeOf := func(r *puppet.Resource) (graph.Node, bool) {
		if n, ok := byRes[r]; ok {
			return n, true
		}
		n, ok := byKey[r.Key()]
		return n, ok
	}
	// nodesOf resolves an expanded reference once, so a class chain's
	// edges go to the graph store as plain handles.
	nodesOf := func(rs []*puppet.Resource) ([]graph.Node, bool) {
		out := make([]graph.Node, len(rs))
		for i, r := range rs {
			n, ok := nodeOf(r)
			if !ok {
				return nil, false
			}
			out[i] = n
		}
		return out, true
	}
	// connect orders every vertex of us before every vertex of vs,
	// ignoring self-dependencies (via containers). what renders the
	// edges' origin, for error messages, only when an edge fails.
	//
	// Section 3.1 expands a class-level dependency into an edge per pair
	// of resources: |us|·|vs| edges, hundreds of thousands for one fleet
	// class chain. When both sides hold more than one resource, connect
	// instead adds one barrier vertex with an edge from every u and to
	// every v, which keeps reachability among resources exactly the same
	// in |us|+|vs| edges. Sides that share a resource (a container
	// referring to one of its own members) keep the product, which skips
	// the self-edge a barrier would turn into a cycle. Barriers are added
	// only here, after every resource has its vertex, so resource handles
	// stay 0..N-1.
	connect := func(us, vs []graph.Node, what func() string) error {
		product := func(us, vs []graph.Node) error {
			for _, u := range us {
				for _, v := range vs {
					if u == v {
						continue
					}
					if err := g.AddEdge(u, v); err != nil {
						return fmt.Errorf("%s: %w", what(), err)
					}
				}
			}
			return nil
		}
		if len(us) <= 1 || len(vs) <= 1 || overlap(us, vs) {
			return product(us, vs)
		}
		b := []graph.Node{g.Add(&node{expr: fs.Id{}, orig: fs.Id{}, sum: barrierSum})}
		if err := product(us, b); err != nil {
			return err
		}
		return product(b, vs)
	}

	// Dependency edges from metaparameters and chaining arrows, expanding
	// class/define-instance references to their contents.
	for _, d := range cat.Deps {
		if err := canceled(); err != nil {
			return nil, err
		}
		if d.From.Type == "stage" || d.To.Type == "stage" {
			continue // handled by stage elimination below
		}
		froms, err := cat.Expand(d.From)
		if err != nil {
			return nil, fmt.Errorf("dependency at %s: %w", d.Pos, err)
		}
		tos, err := cat.Expand(d.To)
		if err != nil {
			return nil, fmt.Errorf("dependency at %s: %w", d.Pos, err)
		}
		if len(froms) == 0 || len(tos) == 0 {
			continue
		}
		what := func() string { return fmt.Sprintf("dependency at %s", d.Pos) }
		us, uok := nodesOf(froms)
		vs, vok := nodesOf(tos)
		if !uok || !vok {
			return nil, fmt.Errorf("%s: unresolved resource reference", what())
		}
		if err := connect(us, vs, what); err != nil {
			return nil, err
		}
	}

	// Autorequire (section 3.1 footnote): a file resource auto-requires
	// the file resource managing its parent directory. Edges go in in
	// catalog order, so insertion is deterministic.
	type fileNode struct {
		path fs.Path
		n    graph.Node
	}
	var files []fileNode
	fileByPath := make(map[fs.Path]graph.Node)
	for _, r := range realized {
		if r.Type != "file" {
			continue
		}
		path, ok := r.AttrString("path")
		if !ok {
			path = r.Title
		}
		if strings.HasPrefix(path, "/") {
			f := fileNode{fs.ParsePath(path), byRes[r]}
			files = append(files, f)
			fileByPath[f.path] = f.n
		}
	}
	for _, f := range files {
		if fileByPath[f.path] != f.n {
			continue // a later resource manages the same path
		}
		if parent, ok := fileByPath[f.path.Parent()]; ok && parent != f.n {
			if err := g.AddEdge(parent, f.n); err != nil {
				return nil, fmt.Errorf("autorequire: %w", err)
			}
		}
	}

	// Stage elimination (section 3.1): order the declared stages by their
	// own dependencies, then add edges between the member resources of
	// ordered stage pairs.
	if err := applyStages(cat, byRes, connect); err != nil {
		return nil, err
	}

	if err := g.CheckAcyclic(); err != nil {
		return nil, describeCycle(g, err)
	}
	return &System{Catalog: cat, opts: opts, g: g}, nil
}

// overlap reports whether xs and ys share a vertex.
func overlap(xs, ys []graph.Node) bool {
	in := make(map[graph.Node]bool, len(xs))
	for _, x := range xs {
		in[x] = true
	}
	for _, y := range ys {
		if in[y] {
			return true
		}
	}
	return false
}

// CycleError reports that the manifest's dependencies form a cycle (the
// composition failure of figure 3b). Resources names the offending
// resources in cycle order; tools that need a structured reason — the
// service's failed job state, the CLI's -json output — read it instead of
// parsing the message. It is a manifest error, not an infrastructure one:
// re-running cannot succeed until the manifest changes.
type CycleError struct {
	// Resources are the resources forming the cycle, in order; the
	// dependency from the last back to the first closes it.
	Resources []string
}

func (e *CycleError) Error() string {
	closed := make([]string, 0, len(e.Resources)+1)
	closed = append(closed, e.Resources...)
	if len(e.Resources) > 0 {
		closed = append(closed, e.Resources[0])
	}
	return fmt.Sprintf("dependency cycle: %s", strings.Join(closed, " -> "))
}

// describeCycle renders the cycle g.CheckAcyclic reported with resource
// names, leaving out the barriers it passes through.
func describeCycle(g *graph.Graph[*node], err error) error {
	var ce *graph.CycleError
	if !errors.As(err, &ce) {
		return err
	}
	var names []string
	for _, n := range ce.Nodes {
		if l := g.Label(n); !l.barrier() {
			names = append(names, l.res.String())
		}
	}
	return &CycleError{Resources: names}
}

// applyStages builds the stage DAG and adds inter-stage resource edges
// through connect.
func applyStages(cat *puppet.Catalog, byRes map[*puppet.Resource]graph.Node, connect func(us, vs []graph.Node, what func() string) error) error {
	stages := cat.Stages()
	if len(stages) == 0 {
		// Without stage declarations every resource is in main; a resource
		// naming another stage is an error.
		for _, r := range cat.Realized() {
			if r.Stage != "main" {
				return fmt.Errorf("%s: undeclared stage %q", r, r.Stage)
			}
		}
		return nil
	}
	known := map[string]bool{"main": true}
	for _, s := range stages {
		known[strings.ToLower(s.Title)] = true
	}
	for _, r := range cat.Realized() {
		if !known[r.Stage] {
			return fmt.Errorf("%s: undeclared stage %q", r, r.Stage)
		}
	}
	// Stage ordering graph.
	sg := graph.New[string]()
	stageNode := make(map[string]graph.Node)
	ensure := func(name string) graph.Node {
		if n, ok := stageNode[name]; ok {
			return n
		}
		n := sg.Add(name)
		stageNode[name] = n
		return n
	}
	ensure("main")
	for _, s := range stages {
		ensure(strings.ToLower(s.Title))
	}
	for _, d := range cat.Deps {
		if d.From.Type != "stage" || d.To.Type != "stage" {
			if d.From.Type == "stage" || d.To.Type == "stage" {
				return fmt.Errorf("dependency at %s mixes stages and resources", d.Pos)
			}
			continue
		}
		from, ok := stageNode[strings.ToLower(d.From.Title)]
		if !ok {
			return fmt.Errorf("dependency at %s: undeclared stage %q", d.Pos, d.From.Title)
		}
		to, ok := stageNode[strings.ToLower(d.To.Title)]
		if !ok {
			return fmt.Errorf("dependency at %s: undeclared stage %q", d.Pos, d.To.Title)
		}
		if err := sg.AddEdge(from, to); err != nil {
			return err
		}
	}
	if err := sg.CheckAcyclic(); err != nil {
		return fmt.Errorf("stage ordering: %w", err)
	}
	// Members per stage.
	members := make(map[string][]graph.Node)
	for _, r := range cat.Realized() {
		members[r.Stage] = append(members[r.Stage], byRes[r])
	}
	// For every ordered stage pair (transitively), add all member edges.
	for _, n := range sg.Nodes() {
		after := sg.Descendants(n)
		for _, later := range sg.Nodes() {
			if _, ok := after[later]; !ok {
				continue
			}
			name, laterName := sg.Label(n), sg.Label(later)
			what := func() string { return fmt.Sprintf("stage %s before %s", name, laterName) }
			if err := connect(members[name], members[laterName], what); err != nil {
				return err
			}
		}
	}
	return nil
}

// resourceNodes returns the resource vertices in declaration order,
// leaving out barriers.
func (s *System) resourceNodes() []graph.Node {
	var out []graph.Node
	for _, n := range s.g.Nodes() {
		if !s.g.Label(n).barrier() {
			out = append(out, n)
		}
	}
	return out
}

// resourceGraph returns the resource graph with every barrier expanded
// back into the resource edges it stands for: the graph of section 3.1,
// with the same handles, that the exports below render.
func (s *System) resourceGraph() *graph.Graph[*node] {
	nodes := s.resourceNodes()
	out := graph.New[*node]()
	for _, n := range nodes {
		out.Add(s.g.Label(n)) // resource handles are 0..N-1 in both graphs
	}
	succs := graph.NewBits(len(nodes))
	for _, u := range nodes {
		clear(succs)
		for _, m := range s.g.Succs(u) {
			if !s.g.Label(m).barrier() {
				succs.Set(m)
				continue
			}
			for _, v := range s.g.Succs(m) {
				succs.Set(v)
			}
		}
		for v := succs.Next(0); v >= 0; v = succs.Next(v + 1) {
			_ = out.AddEdge(u, v)
		}
	}
	return out
}

// Size returns the number of resources in the compiled graph.
func (s *System) Size() int { return len(s.resourceNodes()) }

// ResourceNames returns the resource names in declaration order.
func (s *System) ResourceNames() []string {
	var out []string
	for _, n := range s.resourceNodes() {
		out = append(out, s.g.Label(n).res.String())
	}
	return out
}

// Dot renders the resource graph in Graphviz format.
func (s *System) Dot() string {
	return s.resourceGraph().Dot(func(n *node) string { return n.res.String() })
}

// Graph exposes a copy of the resource graph labeled with resource names,
// for inspection by tools.
func (s *System) Graph() *graph.Graph[string] {
	return graph.Induced(s.resourceGraph(), all, func(_ graph.Node, n *node) string { return n.res.String() })
}

// ExprGraph exposes the resource graph labeled with the unpruned FS
// models, as consumed by the dynamic baseline (package dynamic).
func (s *System) ExprGraph() *graph.Graph[fs.Expr] {
	return graph.Induced(s.resourceGraph(), all, func(_ graph.Node, n *node) fs.Expr { return n.orig })
}

// all keeps every vertex of a graph.
func all(graph.Node) bool { return true }

// ResourceDigests returns the Merkle digest of every resource's compiled
// (unpruned) model, keyed by resource name — the input internal/diff
// consumes to delta two manifest versions. Digests are content addresses
// of the compiled models, so they see through textual changes that
// compile identically and catch semantic changes that leave the
// declaration text untouched (a changed variable flowing into another
// resource's template).
func (s *System) ResourceDigests() map[string]fs.Digest {
	nodes := s.resourceNodes()
	out := make(map[string]fs.Digest, len(nodes))
	for _, n := range nodes {
		l := s.g.Label(n)
		out[l.res.String()] = fs.DigestExpr(l.orig)
	}
	return out
}

// TotalPaths returns the number of modeled paths before any analysis — the
// unpruned "paths per state" of figure 11a.
func (s *System) TotalPaths() int {
	dom := make(fs.PathSet)
	for _, n := range s.resourceNodes() {
		dom.AddDom(s.g.Label(n).orig)
	}
	return len(dom)
}
