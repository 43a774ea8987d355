package service

// The HTTP surface of rehearsald. Endpoints:
//
//	POST   /v1/jobs              submit a manifest-analysis job (202; 429
//	                             when the queue is full, 503 when draining)
//	GET    /v1/jobs/{id}         job lifecycle + report when finished
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/witness the counterexample witness document
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              process liveness
//	GET    /readyz               accepting work and listing service healthy
//
// The handler reuses the hardening patterns of cmd/pkgserver: request
// bodies are size-capped before decoding, and the optional faults
// middleware injects deterministic chaos for end-to-end fault drills. The
// companion NewHTTPServer applies header/read/write/idle timeouts;
// Shutdown drains the scheduler (canceling in-flight jobs) before the
// listener closes.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/faults"
)

// Server is the verification daemon: a scheduler plus its HTTP handler.
type Server struct {
	cfg   Config
	sched *scheduler
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	sched, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: sched.cfg, sched: sched}, nil
}

// Job returns a live job by id. The service benchmark and the soak test
// wait on Job.Done instead of polling the HTTP surface, which keeps
// latency measurements free of polling quantization.
func (s *Server) Job(id string) (*Job, bool) { return s.sched.store.get(id) }

// Shutdown gracefully drains the daemon: admission stops (new submissions
// get 503), queued and in-flight jobs are canceled and finish in the
// canceled state, and every worker joins before it returns. Bounded by
// ctx. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.drain(ctx)
}

// Handler returns the daemon's HTTP handler, wrapped in the body-size cap
// and, when configured, the fault-injection middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/witness", s.handleWitness)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Cluster != nil {
		s.registerCluster(mux)
	}
	var h http.Handler = mux
	if s.cfg.Faults != nil {
		h = faults.Middleware(s.cfg.Faults, h)
	}
	return http.MaxBytesHandler(h, s.cfg.MaxBodyBytes)
}

// NewHTTPServer wraps the handler in an http.Server with the hardened
// timeouts every exposed listener should run under.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Base job references are node-local, so they resolve here — on the
	// node that ran the base job — before any cluster routing; the routed
	// request carries the resolved base manifest inline.
	req, err := s.sched.resolveBase(req)
	if errors.Is(err, ErrUnknownBase) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if s.routeSubmit(w, r, req) {
		return
	}
	job, deduped, err := s.sched.submit(req)
	switch {
	case errors.Is(err, ErrUnknownBase):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		// Admission control: tell the client when to come back — one
		// median job latency is a decent guess, floored at a second.
		w.Header().Set("Retry-After", retryAfter(s.sched.met))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		// Draining is as transient as a full queue — a rolling restart
		// replaces the process — so the 503 carries the same backoff hint
		// as the 429, letting clients retry against the successor.
		w.Header().Set("Retry-After", retryAfter(s.sched.met))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	view := job.View()
	view.Deduped = deduped
	writeJSON(w, http.StatusAccepted, view)
}

// retryAfter derives a Retry-After value from observed job latency.
func retryAfter(m *metrics) string {
	secs := int(m.jobLatency.quantile(0.5)) + 1
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconvItoa(secs)
}

func strconvItoa(n int) string {
	// strconv.Itoa without the import dance elsewhere in this file.
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 && i > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.sched.store.get(id)
	if !ok {
		// In a cluster the job may live on the ring owner it was proxied
		// to; ask the peers before giving up.
		if s.fanoutLookup(w, r, "/v1/jobs/"+id) {
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.store.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	if job.requestCancel("canceled by client") {
		s.sched.met.cancels.Add(1)
		if job.State() == JobCanceled {
			// Canceled on the spot (it was still queued); a running job
			// transitions when its worker observes the canceled context.
			s.sched.met.jobsCanceled.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleWitness(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.sched.store.get(id)
	if !ok {
		if s.fanoutLookup(w, r, "/v1/jobs/"+id+"/witness") {
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	if !job.State().Terminal() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished"})
		return
	}
	rep := job.Report()
	if rep == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no report (job canceled before a verdict)"})
		return
	}
	wit := rep.WitnessDoc()
	if wit == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no witness: every check passed"})
		return
	}
	writeJSON(w, http.StatusOK, wit)
}

func (s *Server) writeMetrics(w interface{ Write([]byte) (int, error) }) {
	s.sched.met.write(w,
		len(s.sched.queue), cap(s.sched.queue), s.cfg.Workers,
		s.ready(), s.sched.store.counts(), s.sched.sub, s.cfg.Cluster)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = w.Write([]byte("ok\n"))
}

// ready reports whether the daemon should receive traffic: it is not
// draining and the listing-service circuit breaker (if any) is closed.
func (s *Server) ready() bool {
	return !s.sched.isDraining() && s.sched.sub.ProviderHealthy()
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if !s.ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("not ready\n"))
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}
