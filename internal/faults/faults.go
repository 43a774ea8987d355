// Package faults injects deterministic faults into the analysis pipeline's
// I/O layers. The paper's toolchain depends on an external package-listing
// web service and on solver queries that take real wall-clock time; a
// production deployment must tolerate that service hanging, erroring in
// bursts, resetting connections or returning torn JSON, and must tolerate
// torn or garbled files in the on-disk verdict cache. This package supplies
// the fault side of that contract so the tolerant side (internal/pkgdb's
// retrying client, internal/qcache's corruption-safe disk tier) can be
// exercised both in tests and end-to-end via `pkgserver -chaos`.
//
// Faults are driven by a Plan: a seed-derived schedule that decides, per
// request, whether to inject a fault and which Kind. Two modes exist:
//
//   - Per-path burst (Config.Burst > 0): the first Burst requests for each
//     distinct request key fault, later ones succeed. The schedule is a
//     pure function of (key, per-key request count), so it is fully
//     deterministic under any concurrency — the mode differential tests
//     use, because a retry budget larger than the burst guarantees every
//     logical request eventually succeeds.
//   - Rate (Config.Rate > 0): each request faults with the given
//     probability, drawn from a PRNG seeded by Config.Seed. Deterministic
//     for a fixed request order; the chaos-flag mode.
//
// The same Plan drives the client-side Transport (an http.RoundTripper),
// the server-side Middleware, and the io wrappers.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind is one injectable fault.
type Kind uint8

const (
	// None injects nothing; the request proceeds untouched.
	None Kind = iota
	// Latency delays the request, then lets it proceed.
	Latency
	// Status short-circuits the request with a synthesized 503.
	Status
	// Reset fails the request with a connection-reset error (client side)
	// or aborts the response mid-flight (server side).
	Reset
	// Truncate serves the real response body cut off mid-JSON.
	Truncate
	// Corrupt serves the real response body with bytes flipped.
	Corrupt
)

var kindNames = map[Kind]string{
	None:     "none",
	Latency:  "latency",
	Status:   "status",
	Reset:    "reset",
	Truncate: "truncate",
	Corrupt:  "corrupt",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("faults.Kind(%d)", uint8(k))
}

// AllKinds is every injectable fault kind, in injection-rotation order.
var AllKinds = []Kind{Status, Reset, Truncate, Corrupt}

// Config parameterizes a Plan.
type Config struct {
	// Seed drives the PRNG behind Rate mode and the byte positions Corrupt
	// flips. The same seed yields the same schedule.
	Seed int64
	// Rate is the per-request fault probability in [0,1]; ignored when
	// Burst > 0.
	Rate float64
	// Burst, when positive, switches to per-path burst mode: the first
	// Burst requests of every distinct key fault (kinds rotating in
	// Kinds order), all later ones succeed.
	Burst int
	// Latency is the delay injected by Latency faults, and additionally by
	// every fault when Delay is set on all kinds (see spec "latency=").
	Latency time.Duration
	// Kinds is the rotation of fault kinds to inject; empty means
	// AllKinds. A Latency entry requires Latency > 0 to have any effect.
	Kinds []Kind
}

// Stats counts a plan's decisions.
type Stats struct {
	Requests int64          // decisions made
	Injected int64          // decisions that were a fault
	ByKind   map[Kind]int64 // injected faults per kind
}

// Plan is a deterministic fault schedule. Safe for concurrent use.
type Plan struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	perKey map[string]int
	rotate int
	stats  Stats
}

// NewPlan builds a schedule from cfg.
func NewPlan(cfg Config) *Plan {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = append([]Kind(nil), AllKinds...)
	}
	return &Plan{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		perKey: make(map[string]int),
		stats:  Stats{ByKind: make(map[Kind]int64)},
	}
}

// Config returns the plan's configuration (kinds defaulted).
func (p *Plan) Config() Config { return p.cfg }

// Next decides the fault for the next request identified by key (for HTTP,
// the URL path). None means the request proceeds untouched.
func (p *Plan) Next(key string) Kind {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Requests++
	k := None
	if p.cfg.Burst > 0 {
		n := p.perKey[key]
		p.perKey[key] = n + 1
		if n < p.cfg.Burst {
			k = p.cfg.Kinds[n%len(p.cfg.Kinds)]
		}
	} else if p.cfg.Rate > 0 && p.rng.Float64() < p.cfg.Rate {
		k = p.cfg.Kinds[p.rotate%len(p.cfg.Kinds)]
		p.rotate++
	}
	if k != None {
		p.stats.Injected++
		p.stats.ByKind[k]++
	}
	return k
}

// StatsSnapshot returns a copy of the plan's counters.
func (p *Plan) StatsSnapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.ByKind = make(map[Kind]int64, len(p.stats.ByKind))
	for k, v := range p.stats.ByKind {
		s.ByKind[k] = v
	}
	return s
}

// corruptPositions returns deterministic byte offsets to flip in a body of
// length n, derived from the plan's seed (not its PRNG, so corruption is
// independent of decision order).
func (p *Plan) corruptPositions(n int) []int {
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.cfg.Seed ^ int64(n)*2654435761))
	flips := 1 + n/64
	out := make([]int, 0, flips)
	for i := 0; i < flips; i++ {
		out = append(out, rng.Intn(n))
	}
	sort.Ints(out)
	return out
}

// ParseSpec parses a chaos-flag specification of comma-separated key=value
// pairs into a Config:
//
//	seed=42,rate=0.2,latency=10ms,kinds=status+reset+truncate+corrupt
//	seed=7,burst=2,kinds=status+reset
//
// Keys: seed (int), rate (float in [0,1]), burst (int), latency (duration),
// kinds ('+'-separated from status|reset|truncate|corrupt|latency).
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: malformed field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && (cfg.Rate < 0 || cfg.Rate > 1) {
				err = fmt.Errorf("rate %v outside [0,1]", cfg.Rate)
			}
		case "burst":
			cfg.Burst, err = strconv.Atoi(val)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				k, kerr := kindByName(name)
				if kerr != nil {
					return Config{}, kerr
				}
				cfg.Kinds = append(cfg.Kinds, k)
			}
		default:
			return Config{}, fmt.Errorf("faults: unknown field %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad %s: %v", key, err)
		}
	}
	if cfg.Rate == 0 && cfg.Burst == 0 {
		return Config{}, fmt.Errorf("faults: spec %q injects nothing (set rate= or burst=)", spec)
	}
	return cfg, nil
}

func kindByName(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name && k != None {
			return k, nil
		}
	}
	return None, fmt.Errorf("faults: unknown kind %q", name)
}
