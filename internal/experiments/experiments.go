// Package experiments regenerates the data behind every table and figure
// of the paper's evaluation (section 6) as structured rows; cmd/experiments
// formats them as paper-style tables, and the root benchmark harness
// measures the same configurations under go test -bench.
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/pkgdb"
)

func options(timeout time.Duration) core.Options {
	opts := core.DefaultOptions()
	opts.Timeout = timeout
	return opts
}

// check runs a determinacy analysis, translating deadline exhaustion into
// the timedOut flag.
func check(src string, opts core.Options) (*core.DeterminismResult, time.Duration, bool, error) {
	start := time.Now()
	sys, err := core.Load(src, opts)
	if err != nil {
		return nil, 0, false, err
	}
	res, err := sys.CheckDeterminism()
	elapsed := time.Since(start)
	if errors.Is(err, core.ErrTimeout) {
		return nil, elapsed, true, nil
	}
	if err != nil {
		return nil, elapsed, false, err
	}
	return res, elapsed, false, nil
}

// writeJSON writes v as indented JSON to path: the trajectory-point
// format every -*-out flag of cmd/experiments writes.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PathsRow is one line of figure 11a.
type PathsRow struct {
	Name     string
	Unpruned int
	Pruned   int
	TimedOut bool
}

// Fig11a computes paths per state with and without pruning/elimination.
func Fig11a(timeout time.Duration) ([]PathsRow, error) {
	var rows []PathsRow
	for _, b := range benchmarks.All() {
		res, _, timedOut, err := check(b.Source, options(timeout))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if timedOut {
			rows = append(rows, PathsRow{Name: b.Name, TimedOut: true})
			continue
		}
		rows = append(rows, PathsRow{
			Name:     b.Name,
			Unpruned: res.Stats.TotalPaths,
			Pruned:   res.Stats.Paths,
		})
	}
	return rows, nil
}

// TimeRow compares one benchmark under two configurations.
type TimeRow struct {
	Name       string
	Off, On    time.Duration
	OffTimeout bool
	OnTimeout  bool
}

// Fig11b compares determinacy time with pruning+elimination off versus on
// (commutativity on in both).
func Fig11b(timeout time.Duration) ([]TimeRow, error) {
	var rows []TimeRow
	for _, b := range benchmarks.All() {
		off := options(timeout)
		off.Pruning = false
		off.Elimination = false
		_, offTime, offTO, err := check(b.Source, off)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		_, onTime, onTO, err := check(b.Source, options(timeout))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, TimeRow{
			Name: b.Name,
			Off:  offTime, OffTimeout: offTO,
			On: onTime, OnTimeout: onTO,
		})
	}
	return rows, nil
}

// Fig11c compares determinacy time with commutativity checking off versus
// on (pruning and elimination off in both).
func Fig11c(timeout time.Duration) ([]TimeRow, error) {
	var rows []TimeRow
	for _, b := range benchmarks.All() {
		off := options(timeout)
		off.Commutativity = false
		off.Pruning = false
		off.Elimination = false
		_, offTime, offTO, err := check(b.Source, off)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		on := options(timeout)
		on.Pruning = false
		on.Elimination = false
		_, onTime, onTO, err := check(b.Source, on)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, TimeRow{
			Name: b.Name,
			Off:  offTime, OffTimeout: offTO,
			On: onTime, OnTimeout: onTO,
		})
	}
	return rows, nil
}

// IdemRow is one line of figure 12.
type IdemRow struct {
	Name       string
	Time       time.Duration
	Idempotent bool
	TimedOut   bool
}

// Fig12 measures the idempotence check on the verified suite (seven
// deterministic benchmarks plus the six fixes).
func Fig12(timeout time.Duration) ([]IdemRow, error) {
	var rows []IdemRow
	for _, b := range benchmarks.Verified() {
		sys, err := core.Load(b.Source, options(timeout))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		start := time.Now()
		res, err := sys.CheckIdempotence()
		elapsed := time.Since(start)
		if errors.Is(err, core.ErrTimeout) {
			rows = append(rows, IdemRow{Name: b.Name, Time: elapsed, TimedOut: true})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, IdemRow{Name: b.Name, Time: elapsed, Idempotent: res.Idempotent})
	}
	return rows, nil
}

// ScaleRow is one point of figure 13.
type ScaleRow struct {
	N             int
	Time          time.Duration
	Sequences     int
	Deterministic bool
	TimedOut      bool
}

// Fig13Manifest builds the paper's synthetic worst case: n conflicting
// packages all creating the same file, forced deterministic by a final
// file resource (so the solver must prove unsatisfiability over n! orders).
func Fig13Manifest(n int) (string, pkgdb.Provider) {
	catalog := pkgdb.DefaultCatalog()
	manifest := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("conflict-a-%d", i)
		catalog.Add("ubuntu", &pkgdb.Package{
			Name:    name,
			Version: "1.0",
			Files:   []string{"/opt/a", fmt.Sprintf("/opt/own-%d", i)},
		})
		manifest += fmt.Sprintf("package{'%s': before => File['/opt/a'] }\n", name)
	}
	manifest += "file{'/opt/a': content => 'x' }\n"
	return manifest, catalog
}

// Fig13 measures the worst case for n = 2..maxN.
func Fig13(timeout time.Duration, maxN int) ([]ScaleRow, error) {
	var rows []ScaleRow
	for n := 2; n <= maxN; n++ {
		manifest, provider := Fig13Manifest(n)
		opts := options(timeout)
		opts.Provider = provider
		opts.MaxSequences = 1000000
		res, elapsed, timedOut, err := check(manifest, opts)
		if err != nil {
			return nil, err
		}
		if timedOut {
			rows = append(rows, ScaleRow{N: n, Time: elapsed, TimedOut: true})
			continue
		}
		rows = append(rows, ScaleRow{
			N: n, Time: elapsed,
			Sequences:     res.Stats.Sequences,
			Deterministic: res.Deterministic,
		})
	}
	return rows, nil
}

// BugRow is one line of the section-6 "Bugs found" summary.
type BugRow struct {
	Name          string
	Deterministic bool
	FixVerifies   bool // fix is deterministic AND idempotent
	TimedOut      bool
}

// Bugs checks every benchmark and verifies the fixes of the buggy ones.
func Bugs(timeout time.Duration) ([]BugRow, error) {
	var rows []BugRow
	for _, b := range benchmarks.All() {
		res, _, timedOut, err := check(b.Source, options(timeout))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if timedOut {
			rows = append(rows, BugRow{Name: b.Name, TimedOut: true})
			continue
		}
		row := BugRow{Name: b.Name, Deterministic: res.Deterministic}
		if !res.Deterministic {
			fixed, err := benchmarks.Get(b.FixedName)
			if err != nil {
				return nil, err
			}
			sys, err := core.Load(fixed.Source, options(timeout))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fixed.Name, err)
			}
			det, err := sys.CheckDeterminism()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fixed.Name, err)
			}
			idem, err := sys.CheckIdempotence()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fixed.Name, err)
			}
			row.FixVerifies = det.Deterministic && idem.Idempotent
		}
		rows = append(rows, row)
	}
	return rows, nil
}
