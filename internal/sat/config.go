package sat

// Solver configuration and a space of diverse configs.
//
// A Config captures every search-heuristic knob the CDCL core exposes:
// activity decay rates, phase-initialization policy, restart schedule,
// random-decision frequency, RNG seed and reduce-DB aggressiveness. None
// of these affect the SAT/UNSAT verdict — they only steer which proof or
// model the search finds first — so a verdict never depends on the
// config that produced it.
//
// The zero Config reproduces the solver's historical behavior bit for
// bit, so New() remains NewWithConfig(Config{}) and every existing test
// and cached fingerprint is unaffected.

// PhasePolicy selects how a fresh variable's branching phase is
// initialized. Phase saving (updating the phase on every assignment)
// applies under all policies; the policy only sets the starting polarity.
type PhasePolicy int

// Phase-initialization policies.
const (
	PhaseSaved  PhasePolicy = iota // historical default: start false, then save
	PhaseTrue                      // start true
	PhaseRandom                    // start from the config's seeded RNG
)

func (p PhasePolicy) String() string {
	switch p {
	case PhaseTrue:
		return "true"
	case PhaseRandom:
		return "random"
	default:
		return "saved"
	}
}

// RestartPolicy selects the restart schedule.
type RestartPolicy int

// Restart schedules.
const (
	RestartLuby      RestartPolicy = iota // Luby sequence × RestartBase
	RestartGeometric                      // RestartBase × RestartGrowth^i
)

func (p RestartPolicy) String() string {
	if p == RestartGeometric {
		return "geometric"
	}
	return "luby"
}

// Config is a bundle of search-heuristic knobs. The zero value means
// "historical defaults" for every field; NewWithConfig normalizes it.
type Config struct {
	// Name identifies the config in stats, metrics and benchmark output.
	// Empty normalizes to "default".
	Name string

	// VarDecay is the VSIDS variable-activity decay factor (0 → 0.95).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor (0 → 0.999).
	ClauseDecay float64

	// Phase is the phase-initialization policy for fresh variables.
	Phase PhasePolicy

	// Restart selects the restart schedule; RestartBase is the first
	// interval in conflicts (0 → 64) and RestartGrowth the geometric
	// multiplier (0 → 1.5, geometric schedule only).
	Restart       RestartPolicy
	RestartBase   int64
	RestartGrowth float64

	// RandomFreq is the probability that a decision picks a uniformly
	// random heap variable instead of the VSIDS maximum (0 disables).
	RandomFreq float64

	// Seed seeds the config's deterministic xorshift64 RNG (random
	// decisions and PhaseRandom). 0 normalizes to a fixed nonzero
	// constant, so the zero Config is still fully deterministic.
	Seed uint64

	// MaxLearntBase is the initial learnt-clause budget before reduceDB
	// triggers (0 → 4000, plus twice the problem-clause count);
	// MaxLearntGrowthPct is its geometric growth per reduction (0 → 10).
	MaxLearntBase      int
	MaxLearntGrowthPct int
}

// withDefaults returns the config with every zero field replaced by the
// historical default.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "default"
	}
	if c.VarDecay == 0 {
		c.VarDecay = 0.95
	}
	if c.ClauseDecay == 0 {
		c.ClauseDecay = 0.999
	}
	if c.RestartBase == 0 {
		c.RestartBase = 64
	}
	if c.RestartGrowth == 0 {
		c.RestartGrowth = 1.5
	}
	if c.MaxLearntBase == 0 {
		c.MaxLearntBase = 4000
	}
	if c.MaxLearntGrowthPct == 0 {
		c.MaxLearntGrowthPct = 10
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15 // golden-ratio constant; xorshift needs nonzero
	}
	return c
}

// DefaultConfig returns the historical single-solver configuration.
func DefaultConfig() Config { return Config{}.withDefaults() }

// PortfolioConfigs returns k deterministic, intentionally diverse solver
// configurations; the differential fuzzer checks that verdicts and
// canonical witnesses agree across them. Index 0 is always the default
// config. The configs differ along the axes that most change search
// trajectories — restart schedule, phase initialization, decay rates and
// randomization — because on heavy-tailed SAT instances the minimum over
// diverse runs beats any single run at the tail. Beyond the four named
// shapes, further entries recycle the shapes with distinct seeds.
func PortfolioConfigs(k int) []Config {
	shapes := []Config{
		{},
		{
			// Aggressive geometric restarts with optimistic phases: finds
			// shallow models fast on SAT-leaning instances.
			Name:          "geo-true",
			Restart:       RestartGeometric,
			RestartBase:   32,
			RestartGrowth: 1.3,
			Phase:         PhaseTrue,
			VarDecay:      0.92,
		},
		{
			// Randomized Luby with long base intervals and a slow clause
			// decay: escapes heavy-tailed stalls the default walks into.
			Name:        "rand-luby",
			RandomFreq:  0.02,
			RestartBase: 256,
			ClauseDecay: 0.995,
			Seed:        0xdecafbadc0ffee,
		},
		{
			// Agile: fast decay, random phases, tight clause database —
			// maximum trajectory divergence from the default.
			Name:               "agile",
			Phase:              PhaseRandom,
			VarDecay:           0.85,
			Restart:            RestartGeometric,
			RestartBase:        16,
			RestartGrowth:      1.2,
			MaxLearntBase:      1500,
			MaxLearntGrowthPct: 5,
			RandomFreq:         0.05,
			Seed:               0xa61e5eed,
		},
	}
	if k < 1 {
		k = 1
	}
	out := make([]Config, 0, k)
	for i := 0; i < k; i++ {
		c := shapes[i%len(shapes)]
		if i >= len(shapes) {
			// Same shape, different trajectory: reseed and rename.
			round := uint64(i / len(shapes))
			c.Seed = c.withDefaults().Seed*2862933555777941757 + round
			c.Name = c.withDefaults().Name + "#" + itoa(i)
		}
		out = append(out, c.withDefaults())
	}
	return out
}

// itoa is a minimal integer-to-string helper (avoids strconv in this file's
// hot import graph; configs are built once per checker).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Counters is a snapshot of the solver's cumulative search counters.
type Counters struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
}

// Sub returns c - o, for before/after deltas around a query.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Decisions:    c.Decisions - o.Decisions,
		Propagations: c.Propagations - o.Propagations,
		Conflicts:    c.Conflicts - o.Conflicts,
		Restarts:     c.Restarts - o.Restarts,
	}
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Decisions:    c.Decisions + o.Decisions,
		Propagations: c.Propagations + o.Propagations,
		Conflicts:    c.Conflicts + o.Conflicts,
		Restarts:     c.Restarts + o.Restarts,
	}
}

// Counters returns the solver's cumulative search counters.
func (s *Solver) Counters() Counters {
	return Counters{
		Decisions:    s.decisions,
		Propagations: s.props,
		Conflicts:    s.conflicts,
		Restarts:     s.restarts,
	}
}
