// Command nativebench is the repository's end-to-end benchmark. It runs
// one named workload against the verifier in-process, times every verdict
// natively (no modeled latency anywhere), checks each verdict against a
// known answer, and prints one JSON result line last on stdout.
//
//	nativebench --workload suite|fleet|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose spans
// are written to .bench_build/traces/. See README.md for the workloads and
// the metric map.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"
)

// endToEnd are the metrics a --trace 0 run reports, with their units.
// Verdict costs and set-up time are process CPU time (see measure).
var endToEnd = map[string]string{
	"verdict_cpu_ms_p50":  "ms",
	"verdict_cpu_ms_p99":  "ms",
	"verdict_cpu_ms_mean": "ms",
	"decided_frac":        "ratio",
	"peak_rss_mb":         "MB",
	"setup_s":             "s",
}

// perLayer are the metrics a --trace 1 run reports, with their units
// (see layerMetrics for what each is normalized by).
var perLayer = map[string]string{
	"puppet.parse_ms":           "ms",
	"puppet.eval_ms":            "ms",
	"pkgdb.calls":               "count",
	"pkgdb.ms":                  "ms",
	"core.from_catalog_ms":      "ms",
	"core.determinism_ms":       "ms",
	"core.eliminated":           "count",
	"core.sequences":            "count",
	"core.paths_before":         "count",
	"core.paths_after":          "count",
	"core.intern_hits":          "count",
	"core.idempotence_ms":       "ms",
	"sym.encode_ms":             "ms",
	"sym.terms":                 "count",
	"sat.solve_ms":              "ms",
	"sat.conflicts":             "count",
	"sat.decisions":             "count",
	"sat.propagations":          "count",
	"sat.props_per_s":           "1/s",
	"core.sem_queries":          "count",
	"core.sem_cache_hits":       "count",
	"qcache.hits":               "count",
	"qcache.misses":             "count",
	"qcache.coalesced":          "count",
	"qcache.hit_ratio":          "ratio",
	"service.submit_ms":         "ms",
	"service.queue_wait_ms_p50": "ms",
	"service.queue_wait_ms_p99": "ms",
	"service.run_ms_p50":        "ms",
	"service.run_ms_p99":        "ms",
	"service.dedup_frac":        "ratio",
	"service.rejected":          "count",
	"load.lag_ms_p99":           "ms",
	"trace.overhead_frac":       "ratio",
	"wall.verdict_ms_p50":       "ms",
	"wall.verdict_ms_p99":       "ms",
	"wall.throughput_per_s":     "1/s",
}

// result is what a workload run measured.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	detail            map[string]any // printed on the line before the result
}

// workload runs one workload for the given time. With traced set it
// returns per-layer metrics, otherwise end-to-end ones.
type workload func(seed int64, seconds time.Duration, traced bool) (*result, *tracer, error)

var workloads = map[string]workload{
	"suite":   runSuite,
	"fleet":   runFleet,
	"service": runService,
}

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("nativebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: suite, fleet or service")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured run length")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: nativebench --workload suite|fleet|service --seed N --seconds S --trace 0|1")
		return 2
	}
	res, tr, err := wl(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nativebench: %s: %v\n", *name, err)
		return 1
	}
	env := environment(*name, *seed, *trace == 1)
	if tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path, env); err != nil {
			fmt.Fprintf(os.Stderr, "nativebench: writing trace: %v\n", err)
			return 1
		}
		env["trace_file"] = path
	}
	units := endToEnd
	if *trace == 1 {
		units = perLayer
	}
	metrics := make(map[string]any, len(units))
	for m, unit := range units {
		v, ok := res.metrics[m]
		if !ok {
			fmt.Fprintf(os.Stderr, "nativebench: %s did not measure %s\n", *name, m)
			return 1
		}
		metrics[m] = map[string]any{"value": v, "unit": unit}
	}
	for k, v := range res.detail {
		env[k] = v
	}
	if err := printJSON(env); err != nil {
		return 1
	}
	if err := printJSON(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}); err != nil {
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nativebench: %v\n", err)
		return err
	}
	fmt.Println(string(data))
	return nil
}

// modeledKnobs are option fields that replace native work with modeled
// latency or switch off an engine layer for ablation. A benchmark number
// taken with any of them set is not a native measurement.
var modeledKnobs = []string{
	"PerQueryLatency", "PerSolverLatency", "PerEncodeLatency",
	"ModeledJobLatency", "FreshSolvers", "DisableInterning",
}

// nativeOnly refuses an option set with a modeled-latency or ablation
// knob set. Fields are looked up by name so that the guard keeps
// compiling once the knobs are removed from the program.
func nativeOnly(opts any) error {
	v := reflect.ValueOf(opts)
	for _, knob := range modeledKnobs {
		if f := v.FieldByName(knob); f.IsValid() && !f.IsZero() {
			return fmt.Errorf("%s.%s is set; the benchmark measures native runs only", v.Type(), knob)
		}
	}
	return nil
}

// environment records what the numbers were measured on.
func environment(name string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest(),
	}
}

// layerMetrics turns a traced run's spans and counters into the
// per-layer metrics: self times and pkgdb calls per attempted input,
// core counts per decided determinism check, sym/sat counts per
// idempotence query. Metrics a workload does not reach stay 0.
func layerMetrics(tr *tracer, lc *layerCounts, inputs int) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for name := range perLayer {
		m[name] = 0
	}
	n := float64(max(inputs, 1))
	self := tr.selfTimes()
	perInput := func(span string) float64 { return float64(self[span].SelfNS) / 1e6 / n }
	m["puppet.parse_ms"] = perInput("puppet.parse")
	m["puppet.eval_ms"] = perInput("puppet.eval")
	m["pkgdb.ms"] = perInput("pkgdb")
	m["core.from_catalog_ms"] = perInput("core.from_catalog")
	m["core.determinism_ms"] = perInput("core.determinism")
	m["core.idempotence_ms"] = perInput("core.idempotence")
	m["sym.encode_ms"] = perInput("sym.encode")
	m["sat.solve_ms"] = perInput("sat.solve")
	m["pkgdb.calls"] = float64(lc.pkgdbCalls.Load()) / n

	checks := float64(max(lc.checks.Load(), 1))
	m["core.eliminated"] = float64(lc.eliminated.Load()) / checks
	m["core.sequences"] = float64(lc.sequences.Load()) / checks
	m["core.paths_before"] = float64(lc.pathsBefore.Load()) / checks
	m["core.paths_after"] = float64(lc.pathsAfter.Load()) / checks
	m["core.intern_hits"] = float64(lc.internHits.Load()) / checks
	m["core.sem_queries"] = float64(lc.semQueries.Load()) / checks
	m["core.sem_cache_hits"] = float64(lc.semCacheHits.Load()) / checks

	if idem := lc.idemChecks.Load(); idem > 0 {
		k := float64(idem)
		m["sym.terms"] = float64(lc.terms.Load()) / k
		m["sat.conflicts"] = float64(lc.conflicts.Load()) / k
		m["sat.decisions"] = float64(lc.decisions.Load()) / k
		m["sat.propagations"] = float64(lc.propagation.Load()) / k
		if solve := float64(self["sat.solve"].SelfNS) / 1e9; solve > 0 {
			m["sat.props_per_s"] = float64(lc.propagation.Load()) / solve
		}
	}
	return m
}

// sourceDigest identifies the program under test: the git commit is not
// available in an exported checkout, so it hashes the Go sources and
// module files of the tree the benchmark runs from.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod") || strings.HasSuffix(path, ".pp")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:8])
}
