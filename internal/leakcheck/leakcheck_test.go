package leakcheck

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestSettleCleanWorkload(t *testing.T) {
	base := Take()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-done }()
	}
	close(done)
	if err := Settle(base, Opts{}); err != nil {
		t.Fatalf("clean workload reported a leak: %v", err)
	}
}

// release ends the goroutines blocked on hang and waits until they are
// gone, so the next test's base snapshot does not count them.
func release(base Snapshot, hang chan struct{}) {
	close(hang)
	Settle(base, Opts{})
}

func TestSettleReportsStrandedGoroutine(t *testing.T) {
	base := Take()
	hang := make(chan struct{})
	defer release(base, hang)
	for i := 0; i < 8; i++ {
		go func() { <-hang }()
	}
	err := Settle(base, Opts{Timeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("stranded goroutines not reported")
	}
	if !strings.Contains(err.Error(), "goroutines grew") {
		t.Errorf("diagnostic should name the goroutine growth: %v", err)
	}
	if !strings.Contains(err.Error(), "leakcheck_test.go") {
		t.Errorf("diagnostic should include a stack dump naming this file: %v", err)
	}
}

// A single stranded goroutine hides inside the default slack; zero slack,
// the zero value, reports it.
func TestZeroSlackReportsOneGoroutine(t *testing.T) {
	base := Take()
	hang := make(chan struct{})
	defer release(base, hang)
	go func() { <-hang }()
	if err := Settle(base, Opts{GoroutineSlack: DefaultGoroutineSlack, Timeout: 200 * time.Millisecond}); err != nil {
		t.Fatalf("one goroutine exceeded the default slack: %v", err)
	}
	if err := Settle(base, Opts{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("zero slack did not report the stranded goroutine")
	}
}

func TestSettleReportsLeakedFD(t *testing.T) {
	if Take().FDs < 0 {
		t.Skip("fd counting unsupported on this platform")
	}
	base := Take()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serr := Settle(base, Opts{Timeout: 200 * time.Millisecond})
	if serr == nil {
		t.Fatal("open listener not reported as an fd leak")
	}
	if !strings.Contains(serr.Error(), "open fds grew") {
		t.Errorf("diagnostic should name the fd growth: %v", serr)
	}
	l.Close()
	if err := Settle(base, Opts{}); err != nil {
		t.Fatalf("closed listener still reported: %v", err)
	}
}

func TestHeapBudget(t *testing.T) {
	base := Take()
	if err := Settle(base, Opts{HeapBudget: 1 << 30}); err != nil {
		t.Fatalf("1 GiB budget exceeded at rest: %v", err)
	}
}

type fakeTB struct {
	testing.TB
	failed bool
}

func (f *fakeTB) Helper()               {}
func (f *fakeTB) Fatalf(string, ...any) { f.failed = true }

func TestAssertAdapter(t *testing.T) {
	base := Take()
	ft := &fakeTB{}
	AssertOpts(ft, base, Opts{Timeout: 100 * time.Millisecond})
	if ft.failed {
		t.Fatal("Assert failed on a settled process")
	}
	hang := make(chan struct{})
	defer release(base, hang)
	for i := 0; i < 8; i++ {
		go func() { <-hang }()
	}
	AssertOpts(ft, base, Opts{Timeout: 100 * time.Millisecond})
	if !ft.failed {
		t.Fatal("Assert passed with stranded goroutines")
	}
}
