package main

// The text renderer: prints a service.Report for a person to read. -json
// prints the same report as a JSON document, so both modes show the
// verdicts of one pipeline run.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/fs"
	"repro/internal/service"
	"repro/internal/sym"
)

// printText renders rep, which req (normalized) produced. The report
// stops at the first check that could not finish: the first section req
// names but rep lacks is where rep.Error struck.
func (c *cli) printText(w, ew io.Writer, req service.JobRequest, rep *service.Report) {
	// An error with no resources came from loading the manifest; an empty
	// manifest loads, but leaves its checks nothing to fail on.
	if rep.Error != nil && rep.Resources == 0 {
		fmt.Fprintf(ew, "rehearsal: %s\n", rep.Error.Message)
		return
	}
	fmt.Fprintf(w, "loaded %d resources from %s (platform %s)\n", rep.Resources, rep.Manifest, rep.Platform)

	det := rep.Determinism
	if det == nil {
		printStageErr(w, ew, "determinism", rep.Error)
		return
	}
	if c.verbose {
		printVerbose(w, rep.Stats)
	}
	c.printStats(ew, rep)
	if !det.Ok {
		fmt.Fprintln(w, "determinism: FAIL — the manifest is non-deterministic")
		printCounterexample(w, det.Witness)
		switch r := rep.Repair; {
		case r == nil:
		case !r.Found:
			fmt.Fprintf(w, "  no repair found: %s\n", r.Note)
		default:
			fmt.Fprintln(w, "  suggested dependencies:")
			for _, e := range r.Edges {
				fmt.Fprintf(w, "    %s\n", e)
			}
		}
		return
	}
	fmt.Fprintln(w, "determinism: OK")

	if req.Has(service.CheckIdempotence) {
		idem := rep.Idempotence
		if idem == nil {
			printStageErr(w, ew, "idempotence", rep.Error)
			return
		}
		if idem.Ok {
			fmt.Fprintln(w, "idempotence: OK")
		} else {
			fmt.Fprintln(w, "idempotence: FAIL — applying the manifest twice differs from once")
			if wit := idem.Witness; wit != nil {
				cex := &sym.Counterexample{
					Input: fsState(wit.Input),
					Ok1:   wit.Ok1, Ok2: wit.Ok2,
					Out1: fsState(wit.Out1), Out2: fsState(wit.Out2),
				}
				fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(cex.String(), "\n", "\n  "))
			}
		}
	}

	if req.Invariant != "" {
		inv := rep.Invariant
		if inv == nil {
			printStageErr(w, ew, "invariant", rep.Error)
			return
		}
		if inv.Ok {
			fmt.Fprintf(w, "invariant %s: OK\n", inv.Spec)
		} else {
			fmt.Fprintf(w, "invariant %s: FAIL\n", inv.Spec)
			fmt.Fprintf(w, "  violated from initial state %s\n", fs.StateString(fsState(inv.Input)))
		}
	}
}

// printStageErr reports why a check stage gave no verdict: a timeout or an
// interrupt as the stage's verdict line, anything else as a diagnostic.
func printStageErr(w, ew io.Writer, stage string, e *service.ErrorReport) {
	switch e.Class {
	case service.ClassTimeout:
		fmt.Fprintf(w, "%s: TIMEOUT\n", stage)
	case service.ClassCanceled:
		fmt.Fprintf(w, "%s: INTERRUPTED\n", stage)
	default:
		fmt.Fprintf(ew, "rehearsal: %s\n", e.Message)
	}
}

func printVerbose(w io.Writer, s *service.StatsReport) {
	d := time.Duration(s.DurationMS * float64(time.Millisecond))
	fmt.Fprintf(w, "  resources=%d eliminated=%d pruned-paths=%d paths=%d/%d sequences=%d workers=%d time=%v\n",
		s.Resources, s.Eliminated, s.PrunedPaths, s.Paths, s.TotalPaths, s.Sequences, s.Workers,
		d.Round(time.Millisecond))
	if s.SemQueries+s.SemCacheHits > 0 {
		fmt.Fprintf(w, "  solver-queries=%d cache-hits=%d hit-rate=%.0f%%\n",
			s.SemQueries, s.SemCacheHits, 100*s.SemCacheHitRate)
	}
}

// printStats writes the -stats diagnostics of a report whose determinism
// check finished. Statistics are diagnostics, not results: they go to ew
// (stderr), so stdout stays clean for verdicts and JSON.
func (c *cli) printStats(ew io.Writer, rep *service.Report) {
	s := rep.Stats
	if !c.stats || s == nil {
		return
	}
	fmt.Fprintf(ew, "  solver-queries=%d solver-reuses=%d learnt-retained=%d\n",
		s.SemQueries, s.SolverReuses, s.LearntRetained)
	fmt.Fprintf(ew, "  encode-memo-hits=%d disk-cache-hits=%d\n", s.EncodeMemoHits, s.DiskCacheHits)
	fmt.Fprintf(ew, "  decisions=%d propagations=%d conflicts=%d restarts=%d\n",
		s.SolverDecisions, s.SolverPropagations, s.SolverConflicts, s.SolverRestarts)
	if c.req.BaseManifest != "" {
		fmt.Fprintf(ew, "  diff-changed=%d diff-unchanged=%d pairs-reused=%d pairs-reverified=%d inherit-misses=%d\n",
			s.DiffChanged, s.DiffUnchanged, s.PairsReused, s.PairsReverified, s.InheritMisses)
	}
	if ds, ok := c.sub.DiskStats(); ok {
		fmt.Fprintf(ew, "  disk-hits=%d disk-misses=%d disk-corrupt=%d\n", ds.Hits, ds.Misses, ds.CorruptEntries)
	}
}

func printCounterexample(w io.Writer, wit *service.Witness) {
	if wit == nil {
		return
	}
	out1, out2 := fsState(wit.Out1), fsState(wit.Out2)
	fmt.Fprintf(w, "  initial state: %s\n", fs.StateString(fsState(wit.Input)))
	fmt.Fprintf(w, "  order A: %s\n", strings.Join(wit.Order1, ", "))
	fmt.Fprintf(w, "    outcome: %s\n", outcome(wit.Ok1, out1))
	fmt.Fprintf(w, "  order B: %s\n", strings.Join(wit.Order2, ", "))
	fmt.Fprintf(w, "    outcome: %s\n", outcome(wit.Ok2, out2))
	if wit.Ok1 && wit.Ok2 {
		fmt.Fprintf(w, "  differing paths: %s\n", strings.Join(diffPaths(out1, out2), ", "))
	}
}

// fsState converts a report's filesystem state back to the evaluator's,
// so text mode prints states with fs.StateString as it always has.
func fsState(st service.FSState) fs.State {
	if st == nil {
		return nil
	}
	out := make(fs.State, len(st))
	for p, e := range st {
		c := fs.DirContent()
		if e.Kind == "file" {
			c = fs.FileContent(e.Data)
		}
		out[fs.Path(p)] = c
	}
	return out
}

func outcome(ok bool, st fs.State) string {
	if !ok {
		return "error"
	}
	return fs.StateString(st)
}

func diffPaths(a, b fs.State) []string {
	var out []string
	seen := map[fs.Path]bool{}
	for p, c := range a {
		seen[p] = true
		if oc, ok := b[p]; !ok || oc != c {
			out = append(out, string(p))
		}
	}
	for p := range b {
		if !seen[p] {
			out = append(out, string(p))
		}
	}
	sort.Strings(out)
	return out
}
