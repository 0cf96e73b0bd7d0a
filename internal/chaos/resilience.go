package chaos

import (
	"math"
	"math/rand"
)

// Client-side resilience policies. All are plain deterministic values; the
// engines own the state they drive (timers, histograms, budgets).

// RetryPolicy re-dispatches requests whose copy was lost to a crash or a
// dead-end route, with exponential backoff and jitter. Zero fields select
// the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total dispatch attempts per request, the first
	// included (default 3 = up to two retries).
	MaxAttempts int
	// BaseNS is the first backoff delay (default 1 ms virtual); each
	// further attempt doubles it up to CapNS (default 100 ms virtual).
	BaseNS float64
	CapNS  float64
	// JitterFrac spreads each delay uniformly over ±frac of itself
	// (default 0.5), decorrelating retry storms.
	JitterFrac float64
	// BudgetFrac is the token-bucket retry budget: every completed
	// request earns this many retry tokens (default 0.1 — at most ~10%
	// extra load from retries), each retry spends one. A drained budget
	// fails the request instead of retrying — the anti-retry-storm valve.
	BudgetFrac float64
	// BudgetBurst caps the token bucket (default 10 tokens).
	BudgetBurst float64
}

// WithDefaults returns the policy with zero fields defaulted.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseNS <= 0 {
		p.BaseNS = 1e6
	}
	if p.CapNS <= 0 {
		p.CapNS = 100e6
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac == 0 {
		p.JitterFrac = 0.5
	}
	if p.JitterFrac > 1 {
		p.JitterFrac = 1
	}
	if p.BudgetFrac <= 0 {
		p.BudgetFrac = 0.1
	}
	if p.BudgetBurst <= 0 {
		p.BudgetBurst = 10
	}
	return p
}

// BackoffNS returns the delay before retry number retry (1-based):
// base·2^(retry−1) capped at CapNS, jittered ±JitterFrac from rng. Apply
// WithDefaults first.
func (p RetryPolicy) BackoffNS(retry int, rng *rand.Rand) float64 {
	if retry < 1 {
		retry = 1
	}
	d := p.BaseNS * math.Pow(2, float64(retry-1))
	if d > p.CapNS {
		d = p.CapNS
	}
	if p.JitterFrac > 0 {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	return d
}

// RetryBudget is the token bucket behind RetryPolicy.BudgetFrac. It is not
// concurrency-safe; each fleet owns one on its event loop.
type RetryBudget struct {
	tokens float64
	frac   float64
	burst  float64
}

// NewRetryBudget builds a full bucket for the (defaulted) policy.
func NewRetryBudget(p RetryPolicy) *RetryBudget {
	p = p.WithDefaults()
	return &RetryBudget{tokens: p.BudgetBurst, frac: p.BudgetFrac, burst: p.BudgetBurst}
}

// Earn credits one completed request's worth of retry budget.
func (b *RetryBudget) Earn() {
	b.tokens += b.frac
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Spend consumes one retry token, reporting false (and consuming nothing)
// when the bucket is too low — the caller then fails instead of retrying.
func (b *RetryBudget) Spend() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (metrics).
func (b *RetryBudget) Tokens() float64 { return b.tokens }

// HedgePolicy launches a backup copy of a still-unfinished request after a
// delay derived from the observed completion-latency distribution;
// whichever copy completes first wins and the loser is cancelled at its
// queue (first-wins). Zero fields select the documented defaults.
type HedgePolicy struct {
	// Quantile of observed completion latency to wait before hedging
	// (default 0.95 — the classic tail-at-scale p95 hedge).
	Quantile float64
	// MinDelayNS floors the hedge delay and stands in for it until
	// MinSamples completions have been observed (default 1 ms virtual).
	MinDelayNS float64
	// MaxDelayNS caps the delay (default 0 = uncapped).
	MaxDelayNS float64
	// MinSamples is the completion count before the quantile is trusted
	// (default 64).
	MinSamples int
}

// WithDefaults returns the policy with zero fields defaulted.
func (p HedgePolicy) WithDefaults() HedgePolicy {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.MinDelayNS <= 0 {
		p.MinDelayNS = 1e6
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 64
	}
	return p
}

// DelayNS derives the hedge delay from the observed quantile (already
// sampled by the caller): the quantile clamped to [MinDelayNS, MaxDelayNS],
// or MinDelayNS outright while samples < MinSamples. Apply WithDefaults
// first.
func (p HedgePolicy) DelayNS(samples int64, quantileNS float64) float64 {
	if samples < int64(p.MinSamples) {
		return p.MinDelayNS
	}
	d := quantileNS
	if d < p.MinDelayNS {
		d = p.MinDelayNS
	}
	if p.MaxDelayNS > 0 && d > p.MaxDelayNS {
		d = p.MaxDelayNS
	}
	return d
}

// BrownoutPolicy sheds the lowest-priority work first when the fleet-wide
// backlog passes a threshold — graceful degradation under overload, so the
// top priority class keeps its SLO while bulk traffic browns out.
type BrownoutPolicy struct {
	// MaxQueuedPerActive is the backlog (waiting requests per active
	// replica) above which non-top-priority work is shed (default 8).
	MaxQueuedPerActive float64
	// Levels is the number of priority classes (default 4). Priority is
	// assigned by Priority (request id mod Levels; 0 is most important)
	// unless the caller supplies its own.
	Levels int
}

// WithDefaults returns the policy with zero fields defaulted.
func (p BrownoutPolicy) WithDefaults() BrownoutPolicy {
	if p.MaxQueuedPerActive <= 0 {
		p.MaxQueuedPerActive = 8
	}
	if p.Levels <= 1 {
		p.Levels = 4
	}
	return p
}

// Priority derives a deterministic priority class from a request id:
// id mod Levels, with 0 the most important.
func (p BrownoutPolicy) Priority(id int) int {
	if p.Levels <= 1 {
		return 0
	}
	return id % p.Levels
}

// Shed reports whether a request of the given priority should brown out
// when queued backlog is spread over active replicas: priority 0 never
// sheds here, and higher (= less important) classes shed at progressively
// lower backlog — class k sheds when backlog exceeds threshold·(L−k)/L.
func (p BrownoutPolicy) Shed(priority, queued, active int) bool {
	if priority <= 0 || active <= 0 {
		return false
	}
	if priority >= p.Levels {
		priority = p.Levels - 1
	}
	frac := float64(p.Levels-priority) / float64(p.Levels)
	return float64(queued) > p.MaxQueuedPerActive*frac*float64(active)
}

// Resilience bundles the client-side policies. Nil members are disabled;
// the zero value disables everything (plain dispatch, bit for bit).
type Resilience struct {
	Retry    *RetryPolicy
	Hedge    *HedgePolicy
	Breaker  *BreakerConfig
	Brownout *BrownoutPolicy
}

// Enabled reports whether any policy is configured.
func (r Resilience) Enabled() bool {
	return r.Retry != nil || r.Hedge != nil || r.Breaker != nil || r.Brownout != nil
}

// DefaultResilience is the full stack with documented defaults — what the
// chaos experiment's "resilient" row runs.
func DefaultResilience() Resilience {
	return Resilience{
		Retry:    &RetryPolicy{},
		Hedge:    &HedgePolicy{},
		Breaker:  &BreakerConfig{},
		Brownout: &BrownoutPolicy{},
	}
}
