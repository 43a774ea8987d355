package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fs"
	"repro/internal/leakcheck"
	"repro/internal/pkgdb"
)

// TestFleetCheckHonorsContext: a check that runs unbounded for well over
// three seconds — figure 13's worst case at n = 7, whose 5,040 orders
// enumeration encodes and the final solve must prove equal (>15 s on a
// 2-vCPU host) — stops within two seconds of its context ending, with an
// error wrapping ErrCanceled, and leaves no goroutine behind. Fleet
// manifests of every fault class are decided in well under a second, too
// fast to cancel.
func TestFleetCheckHonorsContext(t *testing.T) {
	src, provider := experiments.Fig13Manifest(7)
	base := leakcheck.Take()
	opts := core.DefaultOptions()
	opts.Provider = provider
	opts.Parallelism = 2
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	opts.Context = ctx
	sys, err := core.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.CheckDeterminism()
	<-ctx.Done()
	late := time.Since(deadlineOf(ctx))
	if err == nil {
		t.Fatalf("check returned a verdict (%+v) under a one-second context", res)
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want one wrapping core.ErrCanceled", err)
	}
	if late > 2*time.Second {
		t.Errorf("check returned %v after its context ended, want at most 2s", late)
	}
	leakcheck.Assert(t, base)
}

// cancelOnLookup is a package provider that ends a context at its first
// query and then answers from the catalog it wraps. It implements only
// pkgdb.Provider, so Load cannot bind the context to it: the context
// reaches compilation only through Load's own polls.
type cancelOnLookup struct {
	pkgdb.Provider
	cancel   context.CancelFunc
	mu       sync.Mutex
	names    map[string]bool // packages queried
	canceled time.Time
}

func (p *cancelOnLookup) query(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		p.cancel()
		p.canceled = time.Now()
	}
	p.names[name] = true
}

func (p *cancelOnLookup) Lookup(platform, name string) (*pkgdb.Package, error) {
	p.query(name)
	return p.Provider.Lookup(platform, name)
}

func (p *cancelOnLookup) Closure(platform, name string) ([]*pkgdb.Package, error) {
	p.query(name)
	return p.Provider.Closure(platform, name)
}

func (p *cancelOnLookup) ReverseDependents(platform, name string) ([]*pkgdb.Package, error) {
	p.query(name)
	return p.Provider.ReverseDependents(platform, name)
}

// TestFleetLoadHonorsContext: compiling a 5,000-resource fleet whose
// context ends while its first package is being compiled stops at the
// next resource, without querying another of the fleet's five packages,
// returns within a second with an error wrapping ErrCanceled, and leaves
// no goroutine behind. The context ends on the provider's first query,
// so the test does not depend on how fast the fleet compiles.
func TestFleetLoadHonorsContext(t *testing.T) {
	src := benchmarks.Fleet(5000, benchmarks.FleetNone, 1)
	base := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	provider := &cancelOnLookup{Provider: pkgdb.DefaultCatalog(), cancel: cancel, names: map[string]bool{}}
	opts := core.DefaultOptions()
	opts.Provider = provider
	opts.Context = ctx
	sys, err := core.Load(src, opts)
	returned := time.Now()
	if err == nil {
		t.Fatalf("Load compiled %d resources under a context canceled at the first package query", sys.Size())
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want one wrapping core.ErrCanceled", err)
	}
	provider.mu.Lock()
	defer provider.mu.Unlock()
	if len(provider.names) != 1 {
		t.Errorf("compilation queried packages %v after the cancellation, want only the first", provider.names)
	}
	if took := returned.Sub(provider.canceled); took > time.Second {
		t.Errorf("Load returned %v after the cancellation, want at most 1s", took)
	}
	leakcheck.Assert(t, base)
}

func deadlineOf(ctx context.Context) time.Time {
	d, _ := ctx.Deadline()
	return d
}

// TestIdempotenceHonorsDeadlines: the idempotence check of a
// 1,200-resource fleet (seconds of encoding and SAT search) stops within a
// second under a 50 ms Timeout with ErrTimeout, and under a context ended
// after 50 ms with an error wrapping ErrCanceled; the invariant check on
// logstash-fixed stops on a context that has already ended. None of them
// leaves a goroutine behind.
func TestIdempotenceHonorsDeadlines(t *testing.T) {
	fleet := benchmarks.Fleet(1200, benchmarks.FleetNone, 1)
	b, err := benchmarks.Get("logstash-fixed")
	if err != nil {
		t.Fatal(err)
	}
	bound := time.Second
	if raceEnabled {
		// The race detector slows the polls' spacing about threefold.
		bound = 3 * time.Second
	}
	base := leakcheck.Take()
	load := func(src string, timeout time.Duration, ctx context.Context) *core.System {
		opts := core.DefaultOptions()
		opts.Timeout = timeout
		opts.Context = ctx
		sys, err := core.Load(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	within := func(name string, want error, check func() error) {
		t.Helper()
		start := time.Now()
		err := check()
		took := time.Since(start)
		t.Logf("%s: %v after %v", name, err, took)
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want one wrapping %v", name, err, want)
		}
		if took > bound {
			t.Errorf("%s: returned after %v, want at most %v", name, took, bound)
		}
	}

	sys := load(fleet, 50*time.Millisecond, nil)
	within("idempotence, 50ms timeout", core.ErrTimeout, func() error {
		_, err := sys.CheckIdempotence()
		return err
	})

	ctx, cancel := context.WithCancel(context.Background())
	sys = load(fleet, 0, ctx)
	inv := load(b.Source, 0, ctx)
	stopTimer := time.AfterFunc(50*time.Millisecond, cancel)
	within("idempotence, canceled context", core.ErrCanceled, func() error {
		_, err := sys.CheckIdempotence()
		return err
	})
	stopTimer.Stop()
	cancel()

	within("invariant, canceled context", core.ErrCanceled, func() error {
		_, err := inv.CheckFileInvariant(fs.ParsePath("/etc/logstash/conf.d/logstash.conf"), "x")
		return err
	})
	leakcheck.Assert(t, base)
}

// TestInterruptDuringFinalQuery: a Timeout or context that ends while the
// final determinacy query of a non-deterministic manifest is being encoded
// stops the check with ErrTimeout or an error wrapping ErrCanceled. The
// disequalities encoded after the interrupt are placeholders, and a solve
// on them reported the manifest deterministic: under a Timeout that ended
// before the first of a fleet's two disequalities, and under a
// cancellation before the only disequality of a two-order manifest, after
// which the check polls its context no more.
func TestInterruptDuringFinalQuery(t *testing.T) {
	fleet := benchmarks.Fleet(50, benchmarks.FleetLocalDep, 1)
	const twoOrders = `
package {'ntp': ensure => present }
file {'/etc/ntp.conf': content => 'server pool.ntp.org' }
`
	timeout := time.Second
	if raceEnabled {
		timeout = 3 * time.Second
	}
	check := func(name, src string, want error, opts core.Options, interrupt func()) {
		t.Helper()
		sys, err := core.Load(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		reached := false
		defer core.SetFinalDiffTestHook(func(i int) {
			if i == 1 {
				reached = true
				interrupt()
			}
		})()
		res, err := sys.CheckDeterminism()
		if !reached {
			t.Fatalf("%s: check ended (err = %v) before its final query", name, err)
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: got %+v, err = %v; want an error wrapping %v", name, res, err, want)
		}
	}

	opts := core.DefaultOptions()
	opts.Timeout = timeout
	check("fleet, timeout", fleet, core.ErrTimeout, opts, func() { time.Sleep(timeout) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts = core.DefaultOptions()
	opts.Context = ctx
	check("two orders, canceled context", twoOrders, core.ErrCanceled, opts, func() {
		cancel()
		// The check forwards the cancellation to its solver's stop flag
		// from a goroutine of its own; give that goroutine time to run.
		time.Sleep(50 * time.Millisecond)
	})
}
