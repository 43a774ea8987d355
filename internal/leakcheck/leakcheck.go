// Package leakcheck is the shared resource-leak oracle: snapshot the
// process's goroutine count, open file descriptors and heap before a
// workload, run it, and assert that everything settled back afterwards.
// The service, cluster, fault and scenario tests all need the same
// discipline — "this code path must not strand a goroutine or socket" —
// and TestSoakNoLeaks (internal/service) adds a heap budget over a
// zipfian job mix, so the snapshot/settle/diff logic lives here once
// instead of as per-test ad-hoc loops.
//
// The check is necessarily a settle, not an instantaneous compare:
// HTTP keep-alive reapers, test-server accept loops and runtime helpers
// wind down asynchronously after the workload stops. Settle therefore
// polls until the counts return to (base + slack) or the deadline
// passes, and on failure reports the diff alongside a full stack dump so
// the stranded goroutines are named, not just counted.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Snapshot is one observation of the process's leakable resources.
type Snapshot struct {
	// Goroutines is runtime.NumGoroutine at snapshot time.
	Goroutines int
	// FDs is the number of open file descriptors, or -1 where the
	// platform offers no cheap way to count them (non-Linux).
	FDs int
	// HeapBytes is runtime.MemStats.HeapAlloc. Take does not force a GC;
	// pair Settle's heap budget with an explicit runtime.GC() when exact
	// accounting matters.
	HeapBytes uint64
}

// Take observes the current goroutine, fd and heap state.
func Take() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snapshot{
		Goroutines: runtime.NumGoroutine(),
		FDs:        countFDs(),
		HeapBytes:  ms.HeapAlloc,
	}
}

// countFDs counts open descriptors via /proc/self/fd; -1 when the proc
// filesystem is unavailable. The readdir fd itself is excluded.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents) - 1
}

// Opts tunes a Settle check; the zero value is the strict default every
// in-repo caller wants.
type Opts struct {
	// GoroutineSlack is how many goroutines above base still count as
	// settled; 0 means 3 (runtime and net/http helpers churn a little).
	GoroutineSlack int
	// FDSlack is how many descriptors above base still count as settled.
	// 0 means 0: sockets and files must all be returned.
	FDSlack int
	// HeapBudget bounds heap growth in bytes; 0 skips the heap check
	// (most tests churn the allocator legitimately — only the soak test
	// cares).
	HeapBudget uint64
	// Timeout bounds the settle poll; 0 means 5s.
	Timeout time.Duration
}

func (o Opts) withDefaults() Opts {
	if o.GoroutineSlack <= 0 {
		o.GoroutineSlack = 3
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// Settle waits for the process to return to the base snapshot (within
// opts' slack) and returns a diagnostic error — including a full stack
// dump when goroutines are stranded — if it never does.
func Settle(base Snapshot, opts Opts) error {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.Timeout)
	var now Snapshot
	for {
		now = Take()
		if settled(base, now, opts) {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var problems []string
	if g := now.Goroutines - base.Goroutines; g > opts.GoroutineSlack {
		problems = append(problems, fmt.Sprintf("goroutines grew %d → %d (slack %d)",
			base.Goroutines, now.Goroutines, opts.GoroutineSlack))
	}
	if base.FDs >= 0 && now.FDs >= 0 && now.FDs-base.FDs > opts.FDSlack {
		problems = append(problems, fmt.Sprintf("open fds grew %d → %d (slack %d)",
			base.FDs, now.FDs, opts.FDSlack))
	}
	if opts.HeapBudget > 0 && now.HeapBytes > base.HeapBytes+opts.HeapBudget {
		problems = append(problems, fmt.Sprintf("heap grew %d → %d bytes (budget %d)",
			base.HeapBytes, now.HeapBytes, opts.HeapBudget))
	}
	if len(problems) == 0 {
		// The combination regressed transiently but no single check holds
		// at deadline — re-poll once more and accept.
		if settled(base, Take(), opts) {
			return nil
		}
		problems = append(problems, "resources did not settle")
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return fmt.Errorf("leakcheck: %s\n%s", joinProblems(problems), buf[:n])
}

func settled(base, now Snapshot, opts Opts) bool {
	if now.Goroutines-base.Goroutines > opts.GoroutineSlack {
		return false
	}
	if base.FDs >= 0 && now.FDs >= 0 && now.FDs-base.FDs > opts.FDSlack {
		return false
	}
	if opts.HeapBudget > 0 && now.HeapBytes > base.HeapBytes+opts.HeapBudget {
		return false
	}
	return true
}

func joinProblems(ps []string) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += "; "
		}
		out += p
	}
	return out
}

// Assert is the test-side entry point: call with a snapshot taken before
// the workload; it fails the test with the settle diagnostic when the
// workload leaked. Defaults match the historical per-test loops (5s
// deadline, small goroutine slack, fds exact).
func Assert(t testing.TB, base Snapshot) {
	t.Helper()
	AssertOpts(t, base, Opts{})
}

// AssertOpts is Assert with explicit tolerances.
func AssertOpts(t testing.TB, base Snapshot, opts Opts) {
	t.Helper()
	if err := Settle(base, opts); err != nil {
		t.Fatalf("%v", err)
	}
}
