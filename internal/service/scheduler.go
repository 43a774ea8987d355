package service

// The scheduler: a bounded queue feeding a fixed worker pool, all workers
// sharing one warm core.Substrate. Admission control is structural — the
// queue has a hard depth cap and a full queue rejects with ErrQueueFull
// (the HTTP layer turns that into 429 + Retry-After) — and dedup is
// content-addressed: submissions with equal request keys coalesce onto one
// job via a qcache singleflight Group, and re-submissions of finished work
// are answered from the job store's TTL-bounded result layer without
// touching the queue at all.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/qcache"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull reports that admission control rejected the job: the
	// queue is at capacity. Retry after a backoff.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports that the server is shutting down and accepts no
	// new work.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownBase reports that a differential submission named a base
	// job the store no longer holds (never existed, or evicted/expired).
	// The client should re-submit without a base — a full verification —
	// or chain to a fresher job.
	ErrUnknownBase = errors.New("service: unknown base job")
)

// Config parameterizes the service.
type Config struct {
	// Workers is the number of concurrent verification workers; 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth caps jobs waiting to run; a full queue rejects new
	// submissions with 429. 0 means 64.
	QueueDepth int
	// JobTimeout caps each job's wall-clock time; 0 means 10 minutes (the
	// paper's benchmark limit). Requests may ask for less, never more.
	JobTimeout time.Duration
	// ResultTTL is how long finished jobs keep answering re-submissions
	// from the result layer; 0 means 15 minutes.
	ResultTTL time.Duration
	// MaxJobs bounds job records held for lifecycle queries; oldest
	// finished jobs are evicted beyond it. 0 means 4096.
	MaxJobs int
	// MaxBodyBytes caps request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// Substrate is the shared warm state; nil builds a default (memory-only
	// caches, built-in catalog).
	Substrate *core.Substrate
	// BaseOptions seeds every job's engine options before the request's
	// overlays; zero means core.DefaultOptions(). Platform/NodeName are
	// per-request and overwritten.
	BaseOptions *core.Options
	// Faults, when non-nil, wraps the HTTP handler in the deterministic
	// fault-injection middleware so chaos testing works against the daemon
	// out of the box.
	Faults *faults.Plan
	// Cluster, when non-nil, joins this daemon to a rehearsald cluster:
	// the node's ring tier should also be attached to the Substrate (see
	// core.SubstrateConfig.RemoteTier), submissions are digest-routed to
	// their ring owner, and the peer cache/ring endpoints are served.
	Cluster *cluster.Node
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// scheduler owns the queue, the workers and the job store.
type scheduler struct {
	cfg   Config
	sub   *core.Substrate
	base  core.Options
	store *jobStore
	met   *metrics

	flight qcache.Group[string, *submitOutcome]

	// admitMu guards the queue against a send racing the drain-time close:
	// submitters hold it shared, drain holds it exclusively.
	admitMu  sync.RWMutex
	queue    chan *Job
	draining bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	seq        int64 // job sequence, under admitMu (write side only on submit)
	seqMu      sync.Mutex
}

// submitOutcome is what a submission resolves to before HTTP rendering.
type submitOutcome struct {
	job   *Job
	fresh bool // this submission created the job (vs dedup/result hit)
}

func newScheduler(cfg Config) (*scheduler, error) {
	cfg = cfg.withDefaults()
	sub := cfg.Substrate
	if sub == nil {
		var err error
		sub, err = core.NewSubstrate(core.SubstrateConfig{})
		if err != nil {
			return nil, err
		}
	}
	base := core.DefaultOptions()
	if cfg.BaseOptions != nil {
		base = *cfg.BaseOptions
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		cfg:        cfg,
		sub:        sub,
		base:       base,
		store:      newJobStore(cfg.MaxJobs, cfg.ResultTTL),
		met:        &metrics{},
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// submit admits one job request: a result-layer or in-flight hit returns
// the existing job (deduped true), otherwise a new job is created and
// enqueued. Admission failures return ErrQueueFull or ErrDraining.
func (s *scheduler) submit(req JobRequest) (job *Job, deduped bool, err error) {
	req, err = s.resolveBase(req)
	if err != nil {
		return nil, false, err
	}
	key := req.Key()
	out, err, shared := s.flight.Do(key, func() (*submitOutcome, error) {
		// The result/dedup layer: a live job or a finished one inside the
		// TTL answers the submission without any new work.
		if existing, ok := s.store.lookupKey(key); ok {
			if existing.State().Terminal() {
				s.met.resultHits.Add(1)
			} else {
				s.met.dedupCoalesced.Add(1)
			}
			return &submitOutcome{job: existing}, nil
		}
		s.admitMu.RLock()
		defer s.admitMu.RUnlock()
		if s.draining {
			s.met.drainRejects.Add(1)
			return nil, ErrDraining
		}
		s.seqMu.Lock()
		s.seq++
		id := fmt.Sprintf("j%06d-%s", s.seq, key[:12])
		s.seqMu.Unlock()
		j := newJob(id, req)
		select {
		case s.queue <- j:
		default:
			s.met.admissionRejects.Add(1)
			return nil, ErrQueueFull
		}
		s.store.insert(j)
		s.met.submitted.Add(1)
		return &submitOutcome{job: j, fresh: true}, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared && out.fresh {
		// Concurrent identical submissions coalesced on the creator's
		// singleflight call: all but the creator are dedup hits.
		s.met.dedupCoalesced.Add(1)
	}
	return out.job, !out.fresh || shared, nil
}

// resolveBase normalizes the request and resolves a base job reference to
// its manifest source, so the job is self-contained: content-addressed on
// the base source, immune to the base job's later eviction, and — in a
// cluster — routable to a peer that has never seen the base job ID. Base
// IDs are node-local, so resolution must happen on the node that received
// the submission, before any routing; a request that already carries a
// BaseManifest (one we routed here) resolves to itself.
func (s *scheduler) resolveBase(req JobRequest) (JobRequest, error) {
	req = req.Normalize()
	if req.Base == "" {
		return req, nil
	}
	base, ok := s.store.get(req.Base)
	if !ok {
		return req, fmt.Errorf("%w: %q", ErrUnknownBase, req.Base)
	}
	req.BaseManifest = base.Req.Manifest
	req.Base = ""
	return req, nil
}

// worker runs jobs until the queue closes.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job end to end.
func (s *scheduler) runJob(job *Job) {
	// A drain cancels everything derived from baseCtx; jobs still queued at
	// that point are canceled without running.
	if s.baseCtx.Err() != nil {
		job.requestCancel("server shutting down")
		s.met.jobsCanceled.Add(1)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.start(cancel) {
		return // canceled while queued
	}
	s.met.running.Add(1)
	start := time.Now()

	opts := s.sub.Bind(job.Req.ApplyTo(s.base))
	opts.Context = ctx
	opts.Timeout = job.Req.Timeout(s.cfg.JobTimeout)

	rep := BuildReport(job.Req, opts)
	job.finish(rep)
	s.met.running.Add(-1)
	s.met.jobLatency.observe(time.Since(start))
	s.met.absorb(rep)
	switch job.State() {
	case JobDone:
		s.met.jobsDone.Add(1)
	case JobFailed:
		s.met.jobsFailed.Add(1)
	case JobCanceled:
		s.met.jobsCanceled.Add(1)
	}
}

// drain stops admission, cancels queued and in-flight jobs, and waits for
// the workers — bounded by ctx — so a SIGTERM never strands a goroutine or
// leaves a job in a non-terminal state.
func (s *scheduler) drain(ctx context.Context) error {
	s.admitMu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	if !alreadyDraining {
		close(s.queue)
	}
	s.admitMu.Unlock()
	if alreadyDraining {
		return nil
	}
	// Cancel in-flight work: running jobs observe ErrCanceled through
	// Options.Context and finish as canceled; jobs still queued are
	// canceled by the workers as they dequeue them.
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}

// isDraining reports whether the scheduler has begun shutting down.
func (s *scheduler) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}
