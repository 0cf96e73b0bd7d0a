// Package chaos is the fault-injection and client-side-resilience toolkit
// of the fleet core (internal/des), under both of its drivers.
//
// Injection side: a Schedule is a deterministic, virtual-time-ordered list
// of fault events — replica crashes and restarts, fail-slow service
// multipliers, degraded NoC/link transfer cost, and correlated stuck-at
// fault storms (which the fleet's online repair sweeps heal). Schedules are
// either scripted outright or generated
// from MTBF/MTTR distributions with a seed; either way the same seed yields
// the same byte-for-byte event sequence, so chaos experiments replay
// exactly (the DES fleet asserts a byte-identical event log under chaos in
// its determinism test).
//
// Resilience side: policy values describing retries with exponential
// backoff + jitter under a token-bucket retry budget (RetryPolicy,
// RetryBudget), hedged requests launched after a latency-quantile delay
// with first-wins cancellation (HedgePolicy), per-replica circuit breakers
// (Breaker: closed → open → half-open with probe requests), and brownout
// priority shedding under overload (BrownoutPolicy). The policies hold no
// engine state beyond what their methods document; the one fleet core
// (internal/des) consumes them under both of its drivers.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind names a fault-event type.
type Kind string

// The injectable fault kinds.
const (
	// Crash fail-stops the target replica: its queue is drained (lost —
	// the resilience layer's retries are what recover the work) and it
	// accepts no traffic until a Restart.
	Crash Kind = "crash"
	// Restart returns a crashed replica to service with an idle pipeline.
	Restart Kind = "restart"
	// Slow multiplies the target's service time (fill and initiation
	// interval) by Value — a fail-slow straggler. Value 1 restores full
	// speed; the fleet rejects values below 1 (chaos degrades, it does not
	// overclock).
	Slow Kind = "slow"
	// Link adds Value nanoseconds of degraded NoC/link transfer cost to
	// every batch the target serves (added to the pipeline fill). Value 0
	// restores the healthy link.
	Link Kind = "link"
	// Faults injects a stuck-at cell fault storm of rate Value on the
	// target through the fleet's fault ledger: its health score drops
	// against the fleet's degrade threshold and the online repair sweeps
	// heal it.
	// Value 0 clears the target's faults.
	Faults Kind = "faults"
)

// Event is one scheduled fault at a virtual time.
type Event struct {
	// AtNS is the virtual time the fault strikes, in nanoseconds on the
	// workload clock.
	AtNS float64
	// Kind selects what happens; Target names the replica it happens to.
	Kind   Kind
	Target string
	// Value parameterizes Slow (multiplier), Link (added ns), and Faults
	// (stuck-at cell rate); Crash and Restart ignore it.
	Value float64
}

func (e Event) String() string {
	return fmt.Sprintf("%s@%.0fns %s %g", e.Kind, e.AtNS, e.Target, e.Value)
}

// Schedule is a virtual-time-ordered fault script. Build with Scripted,
// CrashStorm, SlowStorm, or Stochastic, and combine with Merge.
type Schedule struct {
	Events []Event
}

// sortEvents orders by time with a stable sort, so equal-time events keep
// their construction order — the determinism contract.
func (s *Schedule) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].AtNS < s.Events[j].AtNS
	})
}

// Scripted builds a schedule from explicit events (sorted by time, stable).
func Scripted(events ...Event) *Schedule {
	s := &Schedule{Events: append([]Event(nil), events...)}
	s.sortEvents()
	return s
}

// Merge combines schedules into one time-ordered script. Equal-time events
// keep argument order (stable).
func Merge(schedules ...*Schedule) *Schedule {
	out := &Schedule{}
	for _, s := range schedules {
		if s != nil {
			out.Events = append(out.Events, s.Events...)
		}
	}
	out.sortEvents()
	return out
}

// pickFrac deterministically selects ceil(frac·len(names)) replica names
// (at least one for frac > 0) by shuffling a copy with the seed.
func pickFrac(names []string, frac float64, seed int64) []string {
	if frac <= 0 || len(names) == 0 {
		return nil
	}
	n := int(frac*float64(len(names)) + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > len(names) {
		n = len(names)
	}
	picked := append([]string(nil), names...)
	rng := rand.New(rand.NewSource(SubSeed(seed, "chaos/pick")))
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	return picked[:n]
}

// CrashStorm builds a correlated failure: a fraction frac of the named
// replicas (chosen by seed) crash together at atNS and restart mttrNS
// later. It is the canonical "seeded crash storm" of the chaos experiment.
func CrashStorm(atNS, mttrNS float64, names []string, frac float64, seed int64) *Schedule {
	s := &Schedule{}
	for _, name := range pickFrac(names, frac, seed) {
		s.Events = append(s.Events, Event{AtNS: atNS, Kind: Crash, Target: name})
		if mttrNS > 0 {
			s.Events = append(s.Events, Event{AtNS: atNS + mttrNS, Kind: Restart, Target: name})
		}
	}
	s.sortEvents()
	return s
}

// SlowStorm makes a fraction frac of the named replicas fail-slow by factor
// from atNS until atNS+durNS (restored afterwards; durNS <= 0 means the
// slowdown is permanent). The selection seed stream is decorrelated from
// CrashStorm's, so storms built from the same base seed hit different
// replicas.
func SlowStorm(atNS, durNS float64, names []string, frac, factor float64, seed int64) *Schedule {
	s := &Schedule{}
	for _, name := range pickFrac(names, frac, SubSeed(seed, "chaos/slowstorm")) {
		s.Events = append(s.Events, Event{AtNS: atNS, Kind: Slow, Target: name, Value: factor})
		if durNS > 0 {
			s.Events = append(s.Events, Event{AtNS: atNS + durNS, Kind: Slow, Target: name, Value: 1})
		}
	}
	s.sortEvents()
	return s
}

// StochasticConfig parameterizes a Stochastic schedule.
type StochasticConfig struct {
	// MTBFNS is the mean virtual time between failures per replica
	// (exponential); MTTRNS is the mean time to restart (exponential).
	MTBFNS, MTTRNS float64
	// FailSlowFrac is the probability a failure manifests as a fail-slow
	// straggler (service × SlowFactor until "repair") instead of a crash.
	FailSlowFrac float64
	// SlowFactor is the fail-slow service multiplier (default 10).
	SlowFactor float64
}

// Stochastic generates per-replica alternating up/down renewal processes
// over [0, horizonNS): each replica draws exponential up-times (mean MTBF)
// and down-times (mean MTTR) from its own seed-derived stream, so the
// script is deterministic in (cfg, names, horizon, seed) and replicas fail
// independently.
func Stochastic(cfg StochasticConfig, names []string, horizonNS float64, seed int64) *Schedule {
	if cfg.SlowFactor <= 1 {
		cfg.SlowFactor = 10
	}
	s := &Schedule{}
	for _, name := range names {
		if cfg.MTBFNS <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(SubSeed(seed, "chaos/"+name)))
		t := rng.ExpFloat64() * cfg.MTBFNS
		for t < horizonNS {
			slow := cfg.FailSlowFrac > 0 && rng.Float64() < cfg.FailSlowFrac
			down := cfg.MTTRNS * rng.ExpFloat64()
			if slow {
				s.Events = append(s.Events, Event{AtNS: t, Kind: Slow, Target: name, Value: cfg.SlowFactor})
				s.Events = append(s.Events, Event{AtNS: t + down, Kind: Slow, Target: name, Value: 1})
			} else {
				s.Events = append(s.Events, Event{AtNS: t, Kind: Crash, Target: name})
				s.Events = append(s.Events, Event{AtNS: t + down, Kind: Restart, Target: name})
			}
			t += down + rng.ExpFloat64()*cfg.MTBFNS
		}
	}
	s.sortEvents()
	return s
}

// SubSeed derives a stable seed for a named random stream from a base seed
// (FNV-1a over the name, XORed in), so one user-facing seed can drive many
// independent deterministic streams: chaos's own picks, and the fleet
// core's (internal/des) retry jitter.
func SubSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	s := seed ^ int64(h)
	if s == 0 { // rand.NewSource(0) is a degenerate-looking stream; avoid it
		s = int64(h)
	}
	return s
}
