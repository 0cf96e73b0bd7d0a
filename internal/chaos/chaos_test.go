package chaos

import (
	"math/rand"
	"reflect"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i%26)) // names repeat past 26; fine for selection tests
	}
	for i := range out {
		out[i] = out[i] + string(rune('0'+i/26))
	}
	return out
}

func TestScriptedSortsStable(t *testing.T) {
	s := Scripted(
		Event{AtNS: 200, Kind: Restart, Target: "b"},
		Event{AtNS: 100, Kind: Crash, Target: "a"},
		Event{AtNS: 100, Kind: Crash, Target: "b"},
	)
	if s.Events[0].Target != "a" || s.Events[1].Target != "b" || s.Events[2].Kind != Restart {
		t.Fatalf("scripted order wrong: %v", s.Events)
	}
}

func TestCrashStormDeterministicAndPaired(t *testing.T) {
	ns := names(16)
	a := CrashStorm(1e9, 5e8, ns, 0.25, 7)
	b := CrashStorm(1e9, 5e8, ns, 0.25, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storms")
	}
	// 0.25 of 16 → 4 replicas, crash+restart each.
	if len(a.Events) != 8 {
		t.Fatalf("want 8 events, got %d", len(a.Events))
	}
	crashed := map[string]bool{}
	for _, ev := range a.Events {
		switch ev.Kind {
		case Crash:
			if ev.AtNS != 1e9 {
				t.Fatalf("crash at %v", ev.AtNS)
			}
			crashed[ev.Target] = true
		case Restart:
			if ev.AtNS != 1.5e9 {
				t.Fatalf("restart at %v", ev.AtNS)
			}
			if !crashed[ev.Target] {
				t.Fatalf("restart of %q without crash", ev.Target)
			}
		}
	}
	if c := CrashStorm(1e9, 5e8, ns, 0.25, 8); reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds picked identical victims")
	}
}

func TestStochasticAlternatesPerReplica(t *testing.T) {
	ns := names(8)
	cfg := StochasticConfig{MTBFNS: 2e9, MTTRNS: 5e8, FailSlowFrac: 0.5}
	s := Stochastic(cfg, ns, 20e9, 42)
	if len(s.Events) == 0 {
		t.Fatal("no events over 10 MTBFs × 8 replicas")
	}
	s2 := Stochastic(cfg, ns, 20e9, 42)
	if !reflect.DeepEqual(s, s2) {
		t.Fatal("stochastic schedule not deterministic")
	}
	// Per replica: events alternate fail → recover and never exceed horizon
	// for the failure instants.
	type st struct {
		down bool
		last float64
	}
	state := map[string]*st{}
	prev := -1.0
	for _, ev := range s.Events {
		if ev.AtNS < prev {
			t.Fatalf("events unsorted at %v < %v", ev.AtNS, prev)
		}
		prev = ev.AtNS
		r := state[ev.Target]
		if r == nil {
			r = &st{}
			state[ev.Target] = r
		}
		switch ev.Kind {
		case Crash:
			if r.down {
				t.Fatalf("%s crashed twice", ev.Target)
			}
			if ev.AtNS >= 20e9 {
				t.Fatalf("failure past horizon: %v", ev.AtNS)
			}
			r.down = true
		case Restart:
			if r.down != true {
				t.Fatalf("%s restarted while up", ev.Target)
			}
			r.down = false
		case Slow:
			if ev.Value > 1 && r.down {
				t.Fatalf("%s slowed while down", ev.Target)
			}
			r.down = ev.Value > 1
		}
	}
}

func TestMergeOrders(t *testing.T) {
	a := Scripted(Event{AtNS: 5, Kind: Crash, Target: "x"})
	b := Scripted(Event{AtNS: 1, Kind: Crash, Target: "y"}, Event{AtNS: 5, Kind: Restart, Target: "y"})
	m := Merge(a, b, nil)
	want := []Event{
		{AtNS: 1, Kind: Crash, Target: "y"},
		{AtNS: 5, Kind: Crash, Target: "x"},
		{AtNS: 5, Kind: Restart, Target: "y"},
	}
	if !reflect.DeepEqual(m.Events, want) {
		t.Fatalf("merge order: %v", m.Events)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenNS: 100, ProbeSuccesses: 2})
	if b.State() != BreakerClosed || !b.CanRoute(0) {
		t.Fatal("new breaker not closed")
	}
	// Two failures: still closed; a success resets the streak.
	b.Record(0, false)
	b.Record(1, false)
	b.Record(2, true)
	b.Record(3, false)
	b.Record(4, false)
	if b.State() != BreakerClosed {
		t.Fatal("streak did not reset on success")
	}
	b.Record(5, false)
	if b.State() != BreakerOpen {
		t.Fatal("threshold did not open breaker")
	}
	if b.CanRoute(50) {
		t.Fatal("routable during cooldown")
	}
	if !b.CanRoute(105) {
		t.Fatal("not routable after cooldown")
	}
	if b.State() != BreakerOpen {
		t.Fatal("CanRoute mutated state")
	}
	b.OnRoute(105)
	if b.State() != BreakerHalfOpen {
		t.Fatal("OnRoute did not claim probe")
	}
	if b.CanRoute(106) {
		t.Fatal("second probe allowed while one in flight")
	}
	b.Record(110, true) // probe 1 ok
	if !b.CanRoute(111) {
		t.Fatal("half-open refuses next probe")
	}
	b.OnRoute(111)
	b.Record(115, true) // probe 2 ok → closed
	if b.State() != BreakerClosed {
		t.Fatal("probe successes did not close")
	}
	// Re-open and fail the probe: straight back to open with a fresh
	// cooldown.
	for i := 0; i < 3; i++ {
		b.Record(200, false)
	}
	b.OnRoute(305)
	b.Record(306, false)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	if b.CanRoute(350) {
		t.Fatal("cooldown not restarted after failed probe")
	}
	// Reset makes it new again: closed, routable, no failure streak.
	b.Record(351, false)
	b.Reset()
	if b.State() != BreakerClosed || !b.CanRoute(0) {
		t.Fatal("Reset did not close the breaker")
	}
	b.Record(400, false)
	b.Record(401, false)
	if b.State() != BreakerClosed {
		t.Fatal("Reset kept the failure streak")
	}
}

func TestBackoffGrowthCapJitter(t *testing.T) {
	p := RetryPolicy{BaseNS: 1000, CapNS: 4000, JitterFrac: 0.5}.WithDefaults()
	rng := rand.New(rand.NewSource(1))
	for retry, wantMid := range map[int]float64{1: 1000, 2: 2000, 3: 4000, 4: 4000} {
		for i := 0; i < 100; i++ {
			d := p.BackoffNS(retry, rng)
			if d < wantMid*0.5 || d > wantMid*1.5 {
				t.Fatalf("retry %d: backoff %v outside ±50%% of %v", retry, d, wantMid)
			}
		}
	}
	nj := RetryPolicy{BaseNS: 1000, JitterFrac: -1}.WithDefaults()
	if d := nj.BackoffNS(1, rng); d != 1000 {
		t.Fatalf("jitter-disabled backoff %v != 1000", d)
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(RetryPolicy{BudgetFrac: 0.5, BudgetBurst: 2})
	if !b.Spend() || !b.Spend() {
		t.Fatal("full bucket refused spends")
	}
	if b.Spend() {
		t.Fatal("empty bucket allowed a spend")
	}
	b.Earn() // +0.5 → 0.5, still under one token
	if b.Spend() {
		t.Fatal("fractional token spent")
	}
	b.Earn() // 1.0
	if !b.Spend() {
		t.Fatal("earned token refused")
	}
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if b.Tokens() != 2 {
		t.Fatalf("burst cap not applied: %v", b.Tokens())
	}
}

func TestHedgeDelay(t *testing.T) {
	p := HedgePolicy{MinDelayNS: 100, MaxDelayNS: 1000, MinSamples: 10}.WithDefaults()
	if d := p.DelayNS(5, 500); d != 100 {
		t.Fatalf("undersampled delay %v != MinDelayNS", d)
	}
	if d := p.DelayNS(50, 500); d != 500 {
		t.Fatalf("quantile delay %v != 500", d)
	}
	if d := p.DelayNS(50, 5); d != 100 {
		t.Fatalf("floor not applied: %v", d)
	}
	if d := p.DelayNS(50, 1e9); d != 1000 {
		t.Fatalf("cap not applied: %v", d)
	}
}

func TestBrownoutSheds(t *testing.T) {
	p := BrownoutPolicy{MaxQueuedPerActive: 8, Levels: 4}.WithDefaults()
	if p.Shed(0, 1000, 1) {
		t.Fatal("priority 0 shed")
	}
	// Class 3 (least important) sheds at backlog > 8·(1/4)·active = 2/active.
	if !p.Shed(3, 3, 1) || p.Shed(3, 2, 1) {
		t.Fatal("class-3 threshold wrong")
	}
	// Class 1 sheds only past 8·(3/4) = 6 per active.
	if p.Shed(1, 6, 1) || !p.Shed(1, 7, 1) {
		t.Fatal("class-1 threshold wrong")
	}
	if p.Priority(5) != 1 || p.Priority(8) != 0 {
		t.Fatal("priority assignment wrong")
	}
}

func TestResilienceEnabled(t *testing.T) {
	var r Resilience
	if r.Enabled() {
		t.Fatal("zero value enabled")
	}
	if !DefaultResilience().Enabled() {
		t.Fatal("default stack disabled")
	}
}

func TestSubSeed(t *testing.T) {
	a, b := SubSeed(7, "arrivals"), SubSeed(7, "dispatch")
	if a == b {
		t.Fatal("distinct stream names produced the same seed")
	}
	if a != SubSeed(7, "arrivals") {
		t.Fatal("SubSeed not stable")
	}
	if SubSeed(0, "") == 0 {
		t.Fatal("SubSeed produced the degenerate 0 seed")
	}
}
