package des

import (
	"bytes"
	"strings"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/fault"
	"autohet/internal/sim"
)

// repairConfig is a fleet that degrades under fault storms and heals
// through the online repair loop: storms land above the degrade threshold,
// the spares absorb them over a few sweeps, and queued work on a replica
// that degrades bounces up to twice.
func repairConfig(log *bytes.Buffer) (Config, []ReplicaSpec) {
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.MaxBatch = 2
	cfg.QueueDepth = 32
	cfg.MaxRetries = 2
	cfg.HealthSweepNS = 2.5e5
	cfg.Chaos = chaos.Scripted(
		chaos.Event{AtNS: 3.1e5, Kind: chaos.Faults, Target: "r1", Value: 0.03},
		chaos.Event{AtNS: 5.3e5, Kind: chaos.Faults, Target: "r5", Value: 0.02},
		chaos.Event{AtNS: 9.7e5, Kind: chaos.Crash, Target: "r2"},
		chaos.Event{AtNS: 1.23e6, Kind: chaos.Restart, Target: "r2"},
	)
	if log != nil {
		cfg.Log = log
	}
	specs := make([]ReplicaSpec, 8)
	for i := range specs {
		specs[i] = ReplicaSpec{
			Pipeline: &sim.PipelineResult{FillNS: 2000, IntervalNS: 100},
			Repair:   &RepairSpec{Capacity: 0.05, MissRate: 0.5},
		}
	}
	return cfg, specs
}

// A run with fault injection, storms, bounces and repair sweeps replays a
// byte-identical event log per seed.
func TestRepairLoopDeterministicEventLog(t *testing.T) {
	run := func(seed int64) *bytes.Buffer {
		var buf bytes.Buffer
		cfg, specs := repairConfig(&buf)
		f, err := NewFleet(cfg, specs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.InjectFault("r3", &fault.Model{StuckAtOne: 0.015, Seed: 4}); err != nil {
			t.Fatal(err)
		}
		res, err := f.RunTrace(trace.Bursty(5e7, 1.8, 2e5, seed), 20000, 0)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, res)
		if res.Retried == 0 {
			t.Fatal("no queued request bounced off a degrading replica")
		}
		return &buf
	}
	a, b := run(5), run(5)
	for _, line := range []string{"I t=", "V t=", "K t=", "B t="} {
		if !strings.Contains(a.String(), "\n"+line) && !strings.HasPrefix(a.String(), line) {
			t.Fatalf("event log has no %q line", line)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different event logs (%d vs %d bytes)", a.Len(), b.Len())
	}
	if c := run(6); bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different trace seeds produced identical event logs")
	}
}

// Sweeps heal the ledger geometrically and stop once nothing is pending;
// they never keep a run alive.
func TestRepairSweepsHealAndStop(t *testing.T) {
	cfg, specs := repairConfig(nil)
	cfg.Chaos = nil
	f, err := NewFleet(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFault("r0", &fault.Model{StuckAtZero: 0.02}); err != nil {
		t.Fatal(err)
	}
	r := f.replicas[0]
	if r.health != 0 || f.clusters[0].dispatchable != 7 {
		t.Fatalf("storm above threshold: health %v, %d dispatchable", r.health, f.clusters[0].dispatchable)
	}
	// 2000 arrivals at 1e6 rps span ~2 ms: eight sweep periods.
	res, err := f.RunTrace(trace.Poisson(1e6, 3), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.health < 0.99 || r.ledger.repairs < 5 {
		t.Fatalf("after the run: health %v after %d repairing sweeps", r.health, r.ledger.repairs)
	}
	// Undetected faults remain (the residue halves per sweep), so the loop
	// is still armed — but the run ended with its last request.
	if res.VirtualNS > 3e6 || !f.sweepArmed || f.eng.Pending() != 1 {
		t.Fatalf("sweeps extended the run to %v ns (%d pending)", res.VirtualNS, f.eng.Pending())
	}
}

// A ledger whose residue halves each sweep (miss rate 0.5) disarms the
// loop once the residue underflows and a sweep detects nothing, so an idle
// fleet's queue runs dry instead of sweeping forever.
func TestRepairLoopDisarmsAtUnderflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HealthSweepNS = 1
	f, err := NewFleet(cfg, ReplicaSpec{
		Pipeline: &sim.PipelineResult{FillNS: 2000, IntervalNS: 100},
		Repair:   &RepairSpec{Capacity: 0.05, MissRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFault("r0", &fault.Model{StuckAtZero: 0.02}); err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for f.eng.Step() {
		if sweeps++; sweeps > 5000 {
			t.Fatal("health loop still armed after 5000 sweeps")
		}
	}
	l := f.replicas[0].ledger
	if f.sweepArmed || !(l.pending > 0) || l.pending*0.5 != 0 {
		t.Fatalf("loop stopped with armed=%v, pending %v", f.sweepArmed, l.pending)
	}
	// A new injection re-arms it.
	if err := f.InjectFault("r0", &fault.Model{StuckAtZero: 0.001}); err != nil {
		t.Fatal(err)
	}
	if !f.sweepArmed {
		t.Fatal("injection did not re-arm the health loop")
	}
}

// countingGen corrupts the fleet's completion count once, mid-trace.
type countingGen struct {
	trace.Generator
	f     *Fleet
	calls int
}

func (g *countingGen) NextGapNS() float64 {
	if g.calls++; g.calls == 50 {
		g.f.completed.Add(1)
	}
	return g.Generator.NextGapNS()
}

// The end-of-run conservation check catches a corrupted count, and
// RunTrace returns its error.
func TestConservationCheckTrips(t *testing.T) {
	f, err := NewFleet(DefaultConfig(), homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(&countingGen{Generator: trace.Poisson(1e6, 1), f: f}, 100, 0)
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("corrupted run: err %v", err)
	}
	if res == nil || res.Completed != 101 {
		t.Fatalf("corrupted run result %v", res)
	}
	good := &Result{Offered: 3, Completed: 2, Shed: 1, LatenciesNS: []float64{1, 2}}
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Result{
		{Offered: 3, Completed: 2, LatenciesNS: []float64{1, 2}},
		{Offered: 3, Completed: 2, Failed: 1, LatenciesNS: []float64{1}},
	} {
		if bad.Check() == nil {
			t.Fatalf("Check accepted %+v", bad)
		}
	}
}
