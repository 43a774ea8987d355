// Package service is rehearsald: a long-running verification service that
// accepts manifest-analysis jobs over HTTP/JSON and runs them on a bounded
// worker pool sharing one warm core.Substrate — pooled incremental
// solvers, the in-memory verdict cache and its on-disk tier all amortize
// across requests, which is exactly the per-run
// setup cost that makes one-shot CLI verification too slow for CI.
//
// The service layer adds what a multi-tenant daemon needs and the CLI
// never did:
//
//   - admission control: a queue-depth cap answered with 429 + Retry-After
//     and per-job deadlines, on top of the engine's always-on solver
//     budget;
//   - request dedup: identical (manifest, platform, check set) submissions
//     coalesce onto one in-flight job via singleflight, and re-submissions
//     of completed work are answered from a TTL-bounded result layer with
//     zero new solver queries;
//   - lifecycle: jobs move queued → running → {done, failed, canceled},
//     are cancelable mid-run (DELETE, or a SIGTERM drain), and expose
//     their counterexample witness as a separate document;
//   - observability: /metrics (queue depth, jobs by state, cache hit
//     ratios, per-check latency histograms), /healthz and /readyz wired to
//     the listing-service circuit breaker.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Check names accepted in JobRequest.Checks.
const (
	CheckDeterminism = "determinism"
	CheckIdempotence = "idempotence"
	CheckRepair      = "repair"
)

// JobRequest is the body of POST /v1/jobs: one manifest to verify and the
// checks to run on it. The same struct parameterizes the CLI's -json mode,
// so a manifest verified locally and one verified through the daemon go
// through identical code.
type JobRequest struct {
	// Manifest is the Puppet manifest source text.
	Manifest string `json:"manifest"`
	// Platform selects facts and the package catalog ("ubuntu" default, or
	// "centos").
	Platform string `json:"platform,omitempty"`
	// Node selects the node block (default "default").
	Node string `json:"node,omitempty"`
	// Checks lists the analyses to run: determinism, idempotence, repair.
	// Empty means determinism + idempotence. Determinism always runs — the
	// other checks are only meaningful on top of its verdict.
	Checks []string `json:"checks,omitempty"`
	// Invariant, when non-empty ("path=content"), additionally checks the
	// section-5 file invariant.
	Invariant string `json:"invariant,omitempty"`
	// SemanticCommute strengthens the syntactic commutativity analysis
	// with solver-based pairwise equivalence (Options.SemanticCommute).
	SemanticCommute bool `json:"semantic_commute,omitempty"`
	// WellFormedInit restricts initial states to well-formed trees.
	WellFormedInit bool `json:"well_formed_init,omitempty"`
	// TimeoutMS bounds this job's wall-clock time in milliseconds; 0 or
	// anything above the server's per-job cap means the cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Base, when non-empty, names an earlier job (by ID) whose manifest is
	// the base version for differential verification: the scheduler
	// resolves it to that job's manifest source, and the determinacy check
	// re-verifies only resource pairs whose compiled models changed,
	// inheriting the rest from the warm verdict tiers. CI pipelines chain
	// each commit's job to its parent's this way. The base job need not
	// have finished — an unfinished base only means fewer warm verdicts to
	// inherit, never a different verdict.
	Base string `json:"base,omitempty"`
	// BaseManifest is the base version's manifest source, inline. Set it
	// directly when no prior job exists (the CLI's -diff mode does);
	// mutually exclusive with Base.
	BaseManifest string `json:"base_manifest,omitempty"`
}

// Normalize fills defaults and canonicalizes the check set (sorted,
// deduplicated, aliases resolved) so equal requests have equal digests.
func (r JobRequest) Normalize() JobRequest {
	if r.Platform == "" {
		r.Platform = "ubuntu"
	}
	if r.Node == "" {
		r.Node = "default"
	}
	if len(r.Checks) == 0 {
		r.Checks = []string{CheckDeterminism, CheckIdempotence}
	}
	set := make(map[string]bool, len(r.Checks)+1)
	set[CheckDeterminism] = true // determinism always runs
	for _, c := range r.Checks {
		c = strings.ToLower(strings.TrimSpace(c))
		if c == "determinacy" { // the paper's noun; accept both
			c = CheckDeterminism
		}
		set[c] = true
	}
	checks := make([]string, 0, len(set))
	for c := range set {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	r.Checks = checks
	return r
}

// Validate reports the first problem with a normalized request.
func (r JobRequest) Validate() error {
	if strings.TrimSpace(r.Manifest) == "" {
		return fmt.Errorf("manifest must not be empty")
	}
	for _, c := range r.Checks {
		switch c {
		case CheckDeterminism, CheckIdempotence, CheckRepair:
		default:
			return fmt.Errorf("unknown check %q (want determinism, idempotence or repair)", c)
		}
	}
	if r.Invariant != "" {
		if _, _, ok := strings.Cut(r.Invariant, "="); !ok {
			return fmt.Errorf("invariant must be path=content")
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	if r.Base != "" && r.BaseManifest != "" {
		return fmt.Errorf("base and base_manifest are mutually exclusive")
	}
	return nil
}

// Has reports whether the normalized request includes the named check.
func (r JobRequest) Has(check string) bool {
	for _, c := range r.Checks {
		if c == check {
			return true
		}
	}
	return false
}

// Key is the request's content address: equal keys mean equal verification
// work, so the scheduler coalesces them onto one job and the result layer
// answers re-submissions without re-running anything. The timeout is
// deliberately excluded — a longer deadline asks the same question. The
// base manifest participates (a differential job reports different stats
// than a full one), but the Base job reference does not: the scheduler
// resolves it to BaseManifest before keying, so two jobs chained to
// different base jobs with identical manifests still coalesce.
func (r JobRequest) Key() string {
	h := sha256.New()
	manifest := sha256.Sum256([]byte(r.Manifest))
	h.Write(manifest[:])
	fmt.Fprintf(h, "|%s|%s|%s|%s|%t|%t",
		r.Platform, r.Node, strings.Join(r.Checks, ","), r.Invariant,
		r.SemanticCommute, r.WellFormedInit)
	if r.BaseManifest != "" {
		base := sha256.Sum256([]byte(r.BaseManifest))
		h.Write([]byte("|base|"))
		h.Write(base[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ApplyTo overlays the request's per-job knobs on a set of base options.
// The scheduler binds the result to the substrate and adds context and
// deadline before running.
func (r JobRequest) ApplyTo(opts core.Options) core.Options {
	opts.Platform = r.Platform
	opts.NodeName = r.Node
	if r.SemanticCommute {
		opts.SemanticCommute = true
	}
	if r.WellFormedInit {
		opts.WellFormedInit = true
	}
	return opts
}

// Timeout resolves the job's effective deadline under the server cap.
func (r JobRequest) Timeout(cap time.Duration) time.Duration {
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d <= 0 || (cap > 0 && d > cap) {
		return cap
	}
	return d
}
