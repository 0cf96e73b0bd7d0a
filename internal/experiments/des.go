package experiments

import (
	"fmt"

	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
	"autohet/internal/report"
	"autohet/internal/sim"
)

// DES experiments — the fleet-serving story at cluster scale on the
// trace driver of the fleet core. Where the fleet experiments serve a
// handful of replicas through the paced runtime, these sweep arrival
// processes and autoscaling policies over hundreds of replicas in
// milliseconds of wall time.

// desSpecs builds n serving-scale replicas (100 req/s capacity, 50 ms fill
// — an LLM-serving-like regime where the simulated span dwarfs the wall
// cost of simulating it).
func desSpecs(n int) []fleet.ReplicaSpec {
	pr := &sim.PipelineResult{FillNS: 5e7, IntervalNS: 1e7}
	specs := make([]fleet.ReplicaSpec, n)
	for i := range specs {
		specs[i] = fleet.ReplicaSpec{Pipeline: pr}
	}
	return specs
}

// Des generates the DES extension tables: arrival-process shape vs tail
// latency at fixed load, and the autoscaler tracking a diurnal cycle.
func (s *Suite) Des() ([]*report.Table, error) {
	traces, err := s.desTraces()
	if err != nil {
		return nil, err
	}
	scale, err := s.desAutoscale()
	if err != nil {
		return nil, err
	}
	return []*report.Table{traces, scale}, nil
}

// desTraces offers the same mean rate under each arrival process to an
// identical 256-replica fleet: burstiness, not average load, is what moves
// the tail and trips shedding.
func (s *Suite) desTraces() (*report.Table, error) {
	const replicas, requests = 256, 100000
	rate := 0.8 * float64(replicas) * 100 // 80% of aggregate capacity
	t := &report.Table{
		Title: fmt.Sprintf("Extension — virtual-time fleet: arrival process vs tail latency (%d replicas, 80%% load, jsq)", replicas),
		Note: fmt.Sprintf("Same mean rate (%.0f req/s) under every process; overdispersed arrivals "+
			"(bursty MMPP, heavy-tail Pareto) inflate the tail and force sheds that Poisson never sees. "+
			"Each run simulates ~%d requests of virtual time in milliseconds of wall time.", rate, requests),
		Header: []string{"Trace", "Completed", "Shed", "p50 (ms)", "p99 (ms)", "Virtual (s)", "Wall (s)", "Speedup"},
	}
	for _, name := range trace.Names {
		gen, err := trace.Parse(name, rate, s.Seed)
		if err != nil {
			return nil, err
		}
		cfg := des.DefaultConfig()
		cfg.Policy = fleet.JoinShortestQueue
		cfg.ClusterPolicy = fleet.JoinShortestQueue
		cfg.Clusters = 8
		cfg.QueueDepth = 16
		cfg.Seed = s.Seed
		f, err := des.NewFleet(cfg, desSpecs(replicas)...)
		if err != nil {
			return nil, err
		}
		res, err := f.RunTrace(gen, requests, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, report.I(res.Completed), report.I(res.Shed),
			fmt.Sprintf("%.1f", res.P50NS/1e6), fmt.Sprintf("%.1f", res.P99NS/1e6),
			fmt.Sprintf("%.2f", res.VirtualNS/1e9), fmt.Sprintf("%.3f", res.WallSeconds),
			fmt.Sprintf("%.0fx", res.SpeedupVsWall))
	}
	return t, nil
}

// desAutoscale runs a diurnal day-night cycle against a target-utilization
// autoscaler with and without admission control: the scaler sheds capacity
// in the trough and recovers it for the peak, and the admission valve
// converts unbounded queueing into bounded sheds.
func (s *Suite) desAutoscale() (*report.Table, error) {
	const replicas, requests = 256, 100000
	rate := 0.6 * float64(replicas) * 100
	t := &report.Table{
		Title: "Extension — autoscaling a diurnal cycle (256 provisioned replicas, 60% mean load)",
		Note: "TargetUtilization(0.7) resizes the active set every 2 virtual seconds of a " +
			"20-second day-night cycle; QueueCap admission keeps the backlog bounded through the peaks.",
		Header: []string{"Policy", "Completed", "Shed", "p99 (ms)", "Scale actions", "Final active"},
	}
	cases := []struct {
		name   string
		scaler des.Scaler
		admit  des.Admitter
	}{
		{"static (no scaler)", nil, nil},
		{"target-util 0.7", des.TargetUtilization{Target: 0.7, Min: 8}, nil},
		{"target-util 0.7 + queue cap", des.TargetUtilization{Target: 0.7, Min: 8}, des.QueueCap{MaxQueuedPerActive: 8}},
	}
	for _, c := range cases {
		cfg := des.DefaultConfig()
		cfg.Policy = fleet.JoinShortestQueue
		cfg.ClusterPolicy = fleet.JoinShortestQueue
		cfg.Clusters = 8
		cfg.QueueDepth = 64
		cfg.Seed = s.Seed
		cfg.Scaler = c.scaler
		cfg.Admit = c.admit
		cfg.ControlPeriodNS = 2e9
		f, err := des.NewFleet(cfg, desSpecs(replicas)...)
		if err != nil {
			return nil, err
		}
		res, err := f.RunTrace(trace.Diurnal(rate, 0.7, 20e9, s.Seed), requests, 0)
		if err != nil {
			return nil, err
		}
		active := 0
		for _, cl := range res.Clusters {
			active += cl.Active
		}
		t.AddRow(c.name, report.I(res.Completed), report.I(res.Shed),
			fmt.Sprintf("%.1f", res.P99NS/1e6), report.I(int(res.ScaleActions)), report.I(active))
	}
	return t, nil
}
