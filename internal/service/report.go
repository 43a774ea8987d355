package service

// The verification report: one JSON document per manifest, produced
// identically by the daemon's workers and the CLI, whose text mode
// renders the same report. Everything
// a caller needs is structured — verdicts, witnesses, repair suggestions,
// engine statistics, and typed failure reasons (a dependency cycle names
// its resources instead of burying them in a message string).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/sym"
)

// Verdict values of a Report.
const (
	VerdictPass  = "pass"  // every requested check passed
	VerdictFail  = "fail"  // a check failed or the manifest is invalid
	VerdictError = "error" // the analysis could not complete (timeout, canceled, infra)
)

// Error classes of an ErrorReport.
const (
	ClassManifest = "manifest" // the manifest itself is invalid (cycle, bad reference)
	ClassTimeout  = "timeout"  // the analysis exceeded its deadline
	ClassCanceled = "canceled" // the job was canceled before a verdict
	ClassInfra    = "infra"    // infrastructure failure; retrying may succeed
)

// Report is the outcome of verifying one manifest.
type Report struct {
	// Manifest names the source (a file path in CLI mode, empty for the
	// service, whose jobs carry the source inline).
	Manifest  string `json:"manifest,omitempty"`
	Platform  string `json:"platform"`
	Resources int    `json:"resources,omitempty"`
	// Verdict is the rolled-up outcome: pass, fail or error.
	Verdict string `json:"verdict"`

	Determinism *CheckReport     `json:"determinism,omitempty"`
	Idempotence *CheckReport     `json:"idempotence,omitempty"`
	Invariant   *InvariantReport `json:"invariant,omitempty"`
	Repair      *RepairReport    `json:"repair,omitempty"`

	Stats *StatsReport `json:"stats,omitempty"`
	Error *ErrorReport `json:"error,omitempty"`
}

// CheckReport is one analysis verdict plus its witness when it failed.
type CheckReport struct {
	Ok         bool     `json:"ok"`
	DurationMS float64  `json:"duration_ms"`
	Witness    *Witness `json:"witness,omitempty"`
}

// InvariantReport is the outcome of a file-invariant check.
type InvariantReport struct {
	Spec       string  `json:"spec"`
	Ok         bool    `json:"ok"`
	DurationMS float64 `json:"duration_ms"`
	// Input is a violating initial state when Ok is false.
	Input FSState `json:"input,omitempty"`
}

// RepairReport carries suggested dependency edges that restore
// determinism.
type RepairReport struct {
	// Edges in Puppet chaining syntax, e.g. "Package[ntp] -> File[/x]".
	Edges []string `json:"edges,omitempty"`
	// Found is false when the search exhausted its budget; Note then says
	// why.
	Found bool   `json:"found"`
	Note  string `json:"note,omitempty"`
}

// ErrorReport is a typed failure reason.
type ErrorReport struct {
	Class   string `json:"class"`
	Message string `json:"message"`
	// Cycle names the resources of a dependency cycle, in order, when the
	// failure is one (class "manifest").
	Cycle []string `json:"cycle,omitempty"`
}

// FSEntry is one path's content in a witness state.
type FSEntry struct {
	Kind string `json:"kind"` // "file" or "dir"
	Data string `json:"data,omitempty"`
}

// FSState is a filesystem state rendered for JSON.
type FSState map[string]FSEntry

// Witness is a counterexample: an input filesystem plus the outcome(s)
// that expose the bug. For determinism failures Order1/Order2 are two
// valid application orders with differing outcomes; for idempotence
// failures they are absent and Out1/Out2 are the once- and twice-applied
// outcomes.
type Witness struct {
	Input  FSState  `json:"input"`
	Order1 []string `json:"order1,omitempty"`
	Order2 []string `json:"order2,omitempty"`
	Ok1    bool     `json:"ok1"`
	Ok2    bool     `json:"ok2"`
	Out1   FSState  `json:"out1,omitempty"`
	Out2   FSState  `json:"out2,omitempty"`
}

// StatsReport mirrors the engine counters of core.Stats that operators
// care about, in JSON form. sequences counts the linearizations encoded:
// every order POR explores, or 2 when the first two orders already gave a
// replayed counterexample.
type StatsReport struct {
	Resources       int     `json:"resources"`
	Eliminated      int     `json:"eliminated"`
	PrunedPaths     int     `json:"pruned_paths"`
	Paths           int     `json:"paths"`
	TotalPaths      int     `json:"total_paths"`
	Sequences       int     `json:"sequences"`
	Workers         int     `json:"workers"`
	SemQueries      int     `json:"solver_queries"`
	SemCacheHits    int     `json:"sem_cache_hits"`
	SemCacheHitRate float64 `json:"sem_cache_hit_rate"`
	SolverReuses    int     `json:"solver_reuses"`
	LearntRetained  int     `json:"learnt_retained"`
	InternHits      int64   `json:"intern_hits"` // always 0: expressions are not hash-consed
	EncodeMemoHits  int64   `json:"encode_memo_hits"`
	DiskCacheHits   int     `json:"disk_cache_hits"`
	RemoteCacheHits int     `json:"remote_cache_hits,omitempty"`
	DurationMS      float64 `json:"duration_ms"`

	// Differential-verification counters, present only on jobs with a
	// base manifest (see core.Stats for the semantics).
	DiffChanged     int `json:"diff_changed,omitempty"`
	DiffUnchanged   int `json:"diff_unchanged,omitempty"`
	PairsReused     int `json:"pairs_reused,omitempty"`
	PairsReverified int `json:"pairs_reverified,omitempty"`
	InheritMisses   int `json:"inherit_misses,omitempty"`

	// Core solver search counters, summed over every SAT query the job
	// issued (see core.Stats for the semantics).
	SolverDecisions    int64 `json:"solver_decisions,omitempty"`
	SolverPropagations int64 `json:"solver_propagations,omitempty"`
	SolverConflicts    int64 `json:"solver_conflicts,omitempty"`
	SolverRestarts     int64 `json:"solver_restarts,omitempty"`
}

func stateJSON(st fs.State) FSState {
	if st == nil {
		return nil
	}
	out := make(FSState, len(st))
	for p, c := range st {
		e := FSEntry{Kind: "dir"}
		if c.Kind == fs.KindFile {
			e = FSEntry{Kind: "file", Data: c.Data}
		}
		out[string(p)] = e
	}
	return out
}

func witnessFromDeterminism(cex *core.Counterexample) *Witness {
	if cex == nil {
		return nil
	}
	return &Witness{
		Input:  stateJSON(cex.Input),
		Order1: cex.Order1, Order2: cex.Order2,
		Ok1: cex.Ok1, Ok2: cex.Ok2,
		Out1: stateJSON(cex.Out1), Out2: stateJSON(cex.Out2),
	}
}

func witnessFromSym(cex *sym.Counterexample) *Witness {
	if cex == nil {
		return nil
	}
	return &Witness{
		Input: stateJSON(cex.Input),
		Ok1:   cex.Ok1, Ok2: cex.Ok2,
		Out1: stateJSON(cex.Out1), Out2: stateJSON(cex.Out2),
	}
}

func statsJSON(s core.Stats) *StatsReport {
	return &StatsReport{
		Resources:       s.Resources,
		Eliminated:      s.Eliminated,
		PrunedPaths:     s.PrunedPaths,
		Paths:           s.Paths,
		TotalPaths:      s.TotalPaths,
		Sequences:       s.Sequences,
		Workers:         s.Workers,
		SemQueries:      s.SemQueries,
		SemCacheHits:    s.SemCacheHits,
		SemCacheHitRate: s.SemCacheHitRate(),
		SolverReuses:    s.SolverReuses,
		LearntRetained:  s.LearntRetained,
		InternHits:      s.InternHits,
		EncodeMemoHits:  s.EncodeMemoHits,
		DiskCacheHits:   s.DiskCacheHits,
		RemoteCacheHits: s.RemoteCacheHits,
		DurationMS:      float64(s.Duration) / float64(time.Millisecond),
		DiffChanged:     s.DiffChanged,
		DiffUnchanged:   s.DiffUnchanged,
		PairsReused:     s.PairsReused,
		PairsReverified: s.PairsReverified,
		InheritMisses:   s.InheritMisses,

		SolverDecisions:    s.SolverDecisions,
		SolverPropagations: s.SolverPropagations,
		SolverConflicts:    s.SolverConflicts,
		SolverRestarts:     s.SolverRestarts,
	}
}

// Classify maps a check error to its structured class; ExitCode turns the
// class into the CLI's exit code (timeout/interrupt 3, infrastructure 4,
// everything else a manifest-class failure, 1).
func Classify(err error) *ErrorReport {
	if err == nil {
		return nil
	}
	rep := &ErrorReport{Message: err.Error()}
	var cycle *core.CycleError
	switch {
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled):
		rep.Class = ClassCanceled
	case errors.Is(err, core.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		rep.Class = ClassTimeout
	case core.IsInfraError(err):
		rep.Class = ClassInfra
	case errors.As(err, &cycle):
		rep.Class = ClassManifest
		rep.Cycle = cycle.Resources
	default:
		rep.Class = ClassManifest
	}
	return rep
}

// ExitCode maps a report to the CLI's process exit-code classes: 0 every
// check passed, 1 a check failed (or the manifest is invalid), 3 the
// analysis timed out or was canceled, 4 infrastructure failure (retrying
// may succeed). It lives here — not in cmd/rehearsal — so the CLI and
// the end-to-end tests (e2e_test.go) agree on what each code means.
func ExitCode(rep *Report) int {
	if rep.Error != nil {
		switch rep.Error.Class {
		case ClassTimeout, ClassCanceled:
			return 3
		case ClassInfra:
			return 4
		}
	}
	if rep.Verdict == VerdictPass {
		return 0
	}
	return 1
}

// BuildReport loads and verifies one manifest under the (already
// substrate-bound, context-carrying) options, running the checks the
// request names. It never returns an error: failures land in the report's
// Error field with a typed class, so daemon workers and the CLI (both its
// -json and its text mode) share one code path and one output shape.
func BuildReport(req JobRequest, opts core.Options) *Report {
	req = req.Normalize()
	rep := &Report{Platform: req.Platform, Verdict: VerdictPass}

	sys, err := core.Load(req.Manifest, opts)
	if err != nil {
		rep.Error = Classify(err)
		if rep.Error.Class == ClassManifest {
			rep.Verdict = VerdictFail
		} else {
			rep.Verdict = VerdictError
		}
		return rep
	}
	rep.Resources = sys.Size()

	var det *core.DeterminismResult
	if req.BaseManifest != "" {
		// Differential verification: delta against the base version and
		// inherit unchanged pairs' verdicts from the warm tiers. A base
		// that no longer loads is a manifest-class failure — CI chained to
		// a broken parent should hear about it, not silently pay for a
		// full run.
		baseSys, berr := core.Load(req.BaseManifest, opts)
		if berr != nil {
			rep.Error = Classify(fmt.Errorf("base manifest: %w", berr))
			if rep.Error.Class == ClassManifest {
				rep.Verdict = VerdictFail
			} else {
				rep.Verdict = VerdictError
			}
			return rep
		}
		det, err = sys.CheckDeterminismDiff(baseSys)
	} else {
		det, err = sys.CheckDeterminism()
	}
	if err != nil {
		rep.Error = Classify(err)
		rep.Verdict = VerdictError
		return rep
	}
	rep.Stats = statsJSON(det.Stats)
	rep.Determinism = &CheckReport{
		Ok:         det.Deterministic,
		DurationMS: float64(det.Stats.Duration) / float64(time.Millisecond),
		Witness:    witnessFromDeterminism(det.Counterexample),
	}
	if !det.Deterministic {
		rep.Verdict = VerdictFail
		if req.Has(CheckRepair) {
			repair, err := sys.SuggestRepair()
			switch {
			case err != nil:
				rep.Repair = &RepairReport{Found: false, Note: err.Error()}
			case repair != nil:
				rep.Repair = &RepairReport{Found: true, Edges: repair.Edges}
			}
		}
		// Idempotence and invariants are only meaningful on a
		// deterministic manifest (section 5): stop here.
		return rep
	}

	if req.Has(CheckIdempotence) {
		idem, err := sys.CheckIdempotence()
		if err != nil {
			rep.Error = Classify(err)
			rep.Verdict = VerdictError
			return rep
		}
		rep.Idempotence = &CheckReport{
			Ok:         idem.Idempotent,
			DurationMS: float64(idem.Duration) / float64(time.Millisecond),
			Witness:    witnessFromSym(idem.Counterexample),
		}
		if !idem.Idempotent {
			rep.Verdict = VerdictFail
		}
	}

	if req.Invariant != "" {
		path, content, _ := strings.Cut(req.Invariant, "=")
		inv, err := sys.CheckFileInvariant(fs.ParsePath(path), content)
		if err != nil {
			rep.Error = Classify(err)
			rep.Verdict = VerdictError
			return rep
		}
		rep.Invariant = &InvariantReport{
			Spec:       req.Invariant,
			Ok:         inv.Holds,
			DurationMS: float64(inv.Duration) / float64(time.Millisecond),
			Input:      stateJSON(inv.Input),
		}
		if !inv.Holds {
			rep.Verdict = VerdictFail
		}
	}
	return rep
}

// WitnessDoc returns the report's counterexample witness, if any: the
// determinism counterexample when present, else the idempotence one.
func (r *Report) WitnessDoc() *Witness {
	if r.Determinism != nil && r.Determinism.Witness != nil {
		return r.Determinism.Witness
	}
	if r.Idempotence != nil && r.Idempotence.Witness != nil {
		return r.Idempotence.Witness
	}
	return nil
}
