package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/puppet"
	"repro/internal/qcache"
)

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 9

// fleetResources sizes the fleet workload's manifests. fleetCPULimit is
// its per-check limit, in process CPU time: the pkg-config class runs
// into it, and under a wall-clock limit how far that check gets, and so
// the process's peak RSS, would follow the speed of the shared host.
// fleetWallLimit only backstops it.
const (
	fleetResources = 1200
	fleetCPULimit  = 4 * time.Second
	fleetWallLimit = 30 * time.Second
)

// cpuBudget returns a context that is canceled once the process has used
// budget more CPU time than when it was made, and the function that
// releases it.
func cpuBudget(budget time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	start := processCPU()
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if processCPU()-start >= budget {
					cancel()
					return
				}
			}
		}
	}()
	return ctx, cancel
}

// tally accumulates one closed-loop segment.
type tally struct {
	times                      []float64 // wall ms from manifest text to verdict, decided checks
	cpus                       []float64 // process CPU ms over the same stretch
	byInput                    map[string][]float64
	undecidedWall              []float64 // wall ms of checks that hit their limit
	attempted, decided, failed int
	wrong                      []string // inputs whose verdict disagreed with the known answer
	wall                       time.Duration
}

// closedLoop runs rounds back to back until budget is spent, at least
// one; a round is one pass over the workload's input set, so every
// segment covers whole rounds.
func closedLoop(budget time.Duration, round func(t *tally)) *tally {
	t := &tally{byInput: map[string][]float64{}}
	start := time.Now()
	for {
		round(t)
		if time.Since(start) >= budget {
			break
		}
	}
	t.wall = time.Since(start)
	return t
}

// record runs one check and scores it against the known answer.
func (t *tally) record(name, src string, opts core.Options, wantDet, wantIdem bool, tr *tracer, lc *layerCounts) {
	t.attempted++
	// Start every check from a collected heap; the collection is outside
	// the timed region. Only the heap is reset: process-wide state such as
	// the fs interner and the solver pools stays warm across checks, as in
	// a long-lived process, not a fresh CLI one.
	runtime.GC()
	out, err := check(src, opts, wantIdem, tr, lc, int64(t.attempted))
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "nativebench: %s: %v\n", name, err)
	case !out.decided:
		// A classed timeout: no verdict, counted against decided_frac.
		t.undecidedWall = append(t.undecidedWall, ms(out.elapsed))
	case out.deterministic != wantDet || (wantIdem && wantDet && !(out.idemChecked && out.idempotent)):
		t.wrong = append(t.wrong, name)
	default:
		t.decided++
		t.times = append(t.times, ms(out.elapsed))
		t.cpus = append(t.cpus, ms(out.cpu))
		t.byInput[name] = append(t.byInput[name], ms(out.cpu))
	}
}

// passed is the segment's correctness gate. Every input's answer is known
// in advance, so a check that errors is a missed gate, not noise; so is a
// segment in which nothing was decided.
func (t *tally) passed() bool { return len(t.wrong) == 0 && t.failed == 0 && t.decided > 0 }

// measure runs a closed-loop workload: setup several times, then either
// one untraced segment of the whole budget (end-to-end metrics) or an
// untraced and a traced segment of half the budget each (per-layer
// metrics and the tracing overhead). Verdict costs and set-up time are
// process CPU time: on a shared host the wall time of the same check
// moves with the load other tenants put on the CPUs. The wall times are
// printed on the detail line and are the wall.* layer metrics.
func measure(seconds time.Duration, traced bool, setup func() error, round func(t *tally, tr *tracer, lc *layerCounts)) (*result, *tracer, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC() // each set-up starts from a collected heap, as each check does
		start := processCPU()
		if err := setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - start).Seconds())
	}
	if !traced {
		t := closedLoop(seconds, func(t *tally) { round(t, nil, nil) })
		detail := map[string]any{
			"verdict_samples": len(t.times), "wrong": t.wrong, "wall_s": t.wall.Seconds(),
			"cpu_ms_p50_by_input":   t.inputMedians(),
			"undecided_wall_ms_p50": median(t.undecidedWall),
		}
		for k, v := range t.wallMetrics() {
			detail[k] = v
		}
		return &result{
			correct:   t.passed(),
			attempted: t.attempted,
			failed:    t.failed,
			metrics: map[string]float64{
				"verdict_cpu_ms_p50":  quantile(append([]float64(nil), t.cpus...), 0.50),
				"verdict_cpu_ms_p99":  quantile(append([]float64(nil), t.cpus...), 0.99),
				"verdict_cpu_ms_mean": mean(t.cpus),
				"decided_frac":        float64(t.decided) / float64(max(t.attempted, 1)),
				"peak_rss_mb":         peakRSSMB(),
				"setup_s":             median(setups),
			},
			detail: detail,
		}, nil, nil
	}
	plain := closedLoop(seconds/2, func(t *tally) { round(t, nil, nil) })
	tr, lc := newTracer(), &layerCounts{}
	t := closedLoop(seconds/2, func(t *tally) { round(t, tr, lc) })
	m := layerMetrics(tr, lc, t.attempted)
	for k, v := range plain.wallMetrics() {
		m[k] = v
	}
	m["trace.overhead_frac"] = mean(t.cpus)/mean(plain.cpus) - 1
	wrong := append(plain.wrong, t.wrong...)
	return &result{
		correct:   plain.passed() && t.passed(),
		attempted: plain.attempted + t.attempted,
		failed:    plain.failed + t.failed,
		metrics:   m,
		detail:    map[string]any{"verdict_samples": len(t.times), "wrong": wrong},
	}, tr, nil
}

// wallMetrics are the segment's wall-clock figures: latency from manifest
// text to verdict and verdicts per wall second.
func (t *tally) wallMetrics() map[string]float64 {
	lat := append([]float64(nil), t.times...)
	return map[string]float64{
		"wall.verdict_ms_p50":   quantile(lat, 0.50),
		"wall.verdict_ms_p99":   quantile(lat, 0.99),
		"wall.throughput_per_s": float64(t.decided) / t.wall.Seconds(),
	}
}

// inputMedians is the median CPU ms per decided check of each input.
func (t *tally) inputMedians() map[string]float64 {
	m := make(map[string]float64, len(t.byInput))
	for name, xs := range t.byInput {
		m[name] = median(xs)
	}
	return m
}

// compileOnly parses, evaluates and compiles a manifest without checking
// it: the untimed warm-up that lets lazy set-up finish before timing.
func compileOnly(src string, opts core.Options) error {
	stmts, err := puppet.Parse(src)
	if err != nil {
		return err
	}
	cat, err := puppet.Evaluate(stmts, puppet.Config{Facts: core.PlatformFacts(opts.Platform), NodeName: opts.NodeName})
	if err != nil {
		return err
	}
	_, err = core.FromCatalog(cat, opts)
	return err
}

// runSuite checks the paper's embedded manifests (section 6) the way the
// CLI does by default, one at a time, each pass with a private verdict
// cache. Gates: determinism against the manually verified verdict, and
// idempotence for every deterministic one (figure 12).
func runSuite(seed int64, seconds time.Duration, traced bool) (*result, *tracer, error) {
	opts := core.DefaultOptions()
	opts.Timeout = 10 * time.Minute // the CLI's default per-check limit
	if err := nativeOnly(opts); err != nil {
		return nil, nil, err
	}
	var suite []benchmarks.Benchmark
	setup := func() error {
		suite = append(benchmarks.All(), benchmarks.Fixed()...)
		for _, b := range suite {
			if err := compileOnly(b.Source, opts); err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	round := func(t *tally, tr *tracer, lc *layerCounts) {
		o := opts
		o.SharedQueryCache = qcache.New()
		for _, b := range suite {
			src := fmt.Sprintf("# %s, pass token %x\n%s", b.Name, rng.Int63(), b.Source)
			t.record(b.Name, src, o, b.Deterministic, true, tr, lc)
		}
	}
	return measure(seconds, traced, setup, round)
}

// runFleet checks generated fleet manifests for determinism only, one
// cycle of the three fault classes per round, in a closed loop under a
// per-check time limit. Gate: the verdict known by construction.
func runFleet(seed int64, seconds time.Duration, traced bool) (*result, *tracer, error) {
	opts := core.DefaultOptions()
	opts.Timeout = fleetWallLimit
	opts.Parallelism = runtime.NumCPU()
	if err := nativeOnly(opts); err != nil {
		return nil, nil, err
	}
	spec := fleetSpecFor(fleetResources)
	rng := rand.New(rand.NewSource(seed))
	setup := func() error {
		// Generating a cycle's inputs is set-up; so is compiling one.
		var first string
		for f := faultNone; f <= faultPkgConfig; f++ {
			src := genFleet(rng, spec, f)
			if first == "" {
				first = src
			}
		}
		return compileOnly(first, opts)
	}
	round := func(t *tally, tr *tracer, lc *layerCounts) {
		srcs := make([]string, 0, 3)
		for f := faultNone; f <= faultPkgConfig; f++ {
			srcs = append(srcs, genFleet(rng, spec, f))
		}
		for i, src := range srcs {
			f := fault(i)
			o := opts
			var release context.CancelFunc
			o.Context, release = cpuBudget(fleetCPULimit)
			t.record("fleet/"+f.String(), src, o, f.deterministic(), false, tr, lc)
			release()
		}
	}
	return measure(seconds, traced, setup, round)
}
