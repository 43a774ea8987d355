package service

// The soak leak gate: a seeded zipfian job mix driven over real HTTP
// through an in-process daemon must leave nothing behind. After a full
// drain the process is back at its pre-boot goroutine and descriptor
// counts, and post-GC heap growth stays within a fixed budget.
//
// The mix models a site's traffic: manifest popularity is zipfian (a few
// role manifests dominate), and each submission is classified by the work
// the daemon can avoid:
//
//	cold      first sighting of a manifest: full verify, solver work
//	warm      reworded repeat (new digest, same resources): semantic
//	          verdicts answered from the substrate cache
//	resubmit  byte-identical repeat: answered by the dedup/result layer
//
// Latency is not gated here; nativebench's service workload measures it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/pkgdb"
)

const (
	soakSubmissions = 300
	soakClients     = 8
	soakPool        = 16
	soakWarmFrac    = 0.3
	soakHeapBudget  = 64 << 20
	// soakWindow is the number of packages per manifest; 2 gives each
	// cold manifest exactly one fresh semantic-commutativity query.
	soakWindow = 2
)

// soakWorkload builds the manifest pool and the catalog serving it:
// sliding two-package windows over svc packages that all depend on one
// shared library, so neighboring manifests overlap the way a site's role
// manifests do.
func soakWorkload() ([]string, pkgdb.Provider) {
	catalog := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libcommon", Version: "1.0"}
	for i := 0; i < 16; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libcommon/lib%03d", i))
	}
	catalog.Add("ubuntu", lib)
	for i := 1; i <= soakPool+soakWindow; i++ {
		name := fmt.Sprintf("svc-%d", i)
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"libcommon"}}
		for j := 0; j < 4; j++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/lib%03d", name, j))
		}
		catalog.Add("ubuntu", p)
	}
	manifests := make([]string, soakPool)
	for i := range manifests {
		for j := 0; j < soakWindow; j++ {
			manifests[i] += fmt.Sprintf("package {'svc-%d': ensure => present }\n", 1+(i+j)%(soakPool+soakWindow))
		}
	}
	return manifests, catalog
}

type soakRequest struct {
	kind string // cold | warm | resubmit
	body string
}

// soakSchedule precomputes the seeded mix.
func soakSchedule(seed int64, manifests []string) []soakRequest {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(manifests)-1))
	seen := make(map[uint64]bool, len(manifests))
	reqs := make([]soakRequest, 0, soakSubmissions)
	for i := 0; i < soakSubmissions; i++ {
		idx := zipf.Uint64()
		switch {
		case !seen[idx]:
			seen[idx] = true
			reqs = append(reqs, soakRequest{kind: "cold", body: manifests[idx]})
		case rng.Float64() < soakWarmFrac:
			reqs = append(reqs, soakRequest{kind: "warm", body: fmt.Sprintf("# warm variant %d\n%s", i, manifests[idx])})
		default:
			reqs = append(reqs, soakRequest{kind: "resubmit", body: manifests[idx]})
		}
	}
	return reqs
}

// soakSubmit posts one job and waits on its Done channel; it returns an
// error unless the submission was accepted and the job reached done with
// a passing verdict.
func soakSubmit(svc *Server, url string, client *http.Client, r soakRequest) error {
	body, err := json.Marshal(JobRequest{
		Manifest:        r.body,
		SemanticCommute: true,
		Checks:          []string{CheckDeterminism},
	})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var view JobView
	decErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s submission: status %d", r.kind, resp.StatusCode)
	}
	if decErr != nil {
		return fmt.Errorf("%s submission: %v", r.kind, decErr)
	}
	job, ok := svc.Job(view.ID)
	if !ok {
		return fmt.Errorf("%s submission: job %s not found", r.kind, view.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		return fmt.Errorf("%s job %s never finished", r.kind, view.ID)
	}
	if rep := job.Report(); job.State() != JobDone || rep == nil || rep.Verdict != VerdictPass {
		return fmt.Errorf("%s job %s: state %s report %+v", r.kind, view.ID, job.State(), rep)
	}
	return nil
}

func TestSoakNoLeaks(t *testing.T) {
	// The runtime's network poller opens its descriptors on first use and
	// keeps them; touch it before the baseline so the fd gate measures
	// the workload, not runtime initialization.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	runtime.GC()
	base := leakcheck.Take()

	manifests, provider := soakWorkload()
	reqs := soakSchedule(1, manifests)
	kinds := map[string]int{}
	for _, r := range reqs {
		kinds[r.kind]++
	}
	t.Logf("mix: %v", kinds)
	for _, k := range []string{"cold", "warm", "resubmit"} {
		if kinds[k] == 0 {
			t.Fatalf("schedule has no %s submissions: %v", k, kinds)
		}
	}

	sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: provider})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	svc, err := New(Config{
		Workers:     4,
		QueueDepth:  256,
		JobTimeout:  time.Minute,
		Substrate:   sub,
		BaseOptions: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: soakClients}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// A booted daemon is live and ready before it sees traffic.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}

	work := make(chan soakRequest)
	errs := make(chan error, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if err := soakSubmit(svc, ts.URL, client, r); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, r := range reqs {
		work <- r
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = svc.Shutdown(ctx)
	cancel()
	ts.Close()
	transport.CloseIdleConnections()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	runtime.GC()
	if err := leakcheck.Settle(base, leakcheck.Opts{HeapBudget: soakHeapBudget, Timeout: 15 * time.Second}); err != nil {
		t.Fatalf("after %d submissions %v: %v", len(reqs), kinds, err)
	}
}
