package chaos

import (
	"sync"
)

// Per-replica circuit breaker. The state machine is the classic three-state
// one (see DESIGN.md §12 for the diagram):
//
//	Closed    — traffic flows; FailureThreshold consecutive failures open it.
//	Open      — no traffic for OpenNS of virtual time; then the next router
//	            claims a single probe (half-open).
//	Half-open — one probe in flight at a time; ProbeSuccesses consecutive
//	            probe successes close the breaker, any failure re-opens it.
//
// The API splits routing into a non-mutating CanRoute (candidate filtering
// may consult many breakers per dispatch) and a mutating OnRoute (the final
// pick claims the probe slot), so scanning candidates never burns probes.
// Time is caller-supplied virtual nanoseconds — the fleet core's virtual
// clock under either driver — which keeps breaker behavior deterministic
// and replayable.

// BreakerState enumerates the circuit-breaker states.
type BreakerState int32

// The breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes the state machine. Zero fields select the documented
// defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens a
	// closed breaker (default 5).
	FailureThreshold int
	// OpenNS is the open-state cooldown in virtual nanoseconds before a
	// probe may be attempted (default 100 ms virtual).
	OpenNS float64
	// ProbeSuccesses is the consecutive half-open probe successes needed
	// to close (default 2).
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenNS <= 0 {
		c.OpenNS = 100e6
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// Breaker is one replica's circuit breaker. Create with NewBreaker; methods
// are safe for concurrent use (a metric scrape reads State while the fleet
// records outcomes).
type Breaker struct {
	mu        sync.Mutex
	cfg       BreakerConfig
	state     BreakerState
	fails     int     // consecutive failures while closed
	successes int     // consecutive probe successes while half-open
	probeAt   float64 // virtual time the open cooldown elapses
	probing   bool    // a half-open probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Reset returns the breaker to its new, closed state, keeping its config.
// A fleet resets its breakers in place between runs, so a scrape reading
// State never races a replaced pointer.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state, b.fails, b.successes, b.probeAt, b.probing = BreakerClosed, 0, 0, 0, false
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// CanRoute reports whether a request may be routed through the breaker at
// virtual time nowNS: closed always, open only once the cooldown elapsed
// (the route would become the probe), half-open only while no probe is in
// flight. It does not mutate state — call OnRoute on the finally-picked
// replica.
func (b *Breaker) CanRoute(nowNS float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return nowNS >= b.probeAt
	case BreakerHalfOpen:
		return !b.probing
	default:
		return true
	}
}

// OnRoute commits a routing decision at virtual time nowNS: an open breaker
// past its cooldown transitions to half-open and the request becomes its
// probe; a half-open breaker marks its probe in flight.
func (b *Breaker) OnRoute(nowNS float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if nowNS >= b.probeAt {
			b.state = BreakerHalfOpen
			b.successes = 0
			b.probing = true
		}
	case BreakerHalfOpen:
		b.probing = true
	}
}

// Record feeds one request outcome observed at virtual time nowNS. Failures
// while closed count toward FailureThreshold; any failure while half-open
// re-opens; successes reset the failure streak or advance probe credit.
func (b *Breaker) Record(nowNS float64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.open(nowNS)
		}
	case BreakerHalfOpen:
		b.probing = false
		if !ok {
			b.open(nowNS)
			return
		}
		b.successes++
		if b.successes >= b.cfg.ProbeSuccesses {
			b.state = BreakerClosed
			b.fails = 0
		}
	case BreakerOpen:
		// Late outcomes from before the trip; the cooldown already
		// gates probing, so nothing to update.
	}
}

func (b *Breaker) open(nowNS float64) {
	b.state = BreakerOpen
	b.fails = 0
	b.successes = 0
	b.probing = false
	b.probeAt = nowNS + b.cfg.OpenNS
}
