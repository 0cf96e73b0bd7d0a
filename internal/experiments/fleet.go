package experiments

import (
	"fmt"

	"autohet/internal/accel"
	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/dnn"
	"autohet/internal/fleet"
	"autohet/internal/report"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Fleet experiments — fleet serving at deployment scale. Replicas wrap
// mapped VGG16 designs (the paper's Table 3 search result next to its
// homogeneous baselines), so the single-chip RUE story becomes a fleet
// provisioning story: dispatch policy, equal-area replica choice, and fault
// tolerance via retry routing. Tables that read only the Result run on the
// fleet core (des.Fleet); the fault table reads the serving runtime's
// per-replica latency histograms.

// fleetDesign is one mapped design replicas are cloned from.
type fleetDesign struct {
	name string
	pr   *sim.PipelineResult
	plan *accel.Plan
}

// fleetDesigns builds the two VGG16 designs the fleet experiments mix: the
// best homogeneous SXB accelerator and the paper-searched AutoHet strategy.
func (s *Suite) fleetDesigns() (homo, het fleetDesign, err error) {
	m := dnn.VGG16()
	build := func(name string, st accel.Strategy) (fleetDesign, error) {
		p, err := accel.BuildPlan(s.Cfg, m, st, true)
		if err != nil {
			return fleetDesign{}, err
		}
		pr, err := sim.SimulateBatch(p, 64)
		if err != nil {
			return fleetDesign{}, err
		}
		return fleetDesign{name: name, pr: pr, plan: p}, nil
	}
	homo, err = build("homo-128", accel.Homogeneous(m.NumMappable(), xbar.Square(128)))
	if err != nil {
		return
	}
	st, err := accel.ParseStrategy("L1:72x64 L2-L16:576x512")
	if err != nil {
		return
	}
	het, err = build("autohet", st)
	return
}

func (d fleetDesign) spec(suffix string) des.ReplicaSpec {
	return des.ReplicaSpec{Name: d.name + suffix, Pipeline: d.pr, Plan: d.plan}
}

// Fleet generates the fleet-serving extension tables: dispatch-policy
// comparison on a heterogeneous fleet, homogeneous vs AutoHet replicas at
// equal silicon area, and retry routing around a replica that degrades
// mid-run.
func (s *Suite) Fleet() ([]*report.Table, error) {
	homo, het, err := s.fleetDesigns()
	if err != nil {
		return nil, err
	}
	policies, err := s.fleetPolicies(homo, het)
	if err != nil {
		return nil, err
	}
	area, err := s.fleetEqualArea(homo, het)
	if err != nil {
		return nil, err
	}
	faults, err := s.fleetFaults(homo)
	if err != nil {
		return nil, err
	}
	return []*report.Table{policies, area, faults}, nil
}

// fleetPolicies offers 98% of aggregate capacity to a mixed fleet (two
// homogeneous replicas, two AutoHet ones) under each dispatch policy. Round
// robin splits traffic evenly, which structurally overloads the
// lower-capacity AutoHet replicas; queue-aware policies shift the excess to
// the faster replicas and keep the tail flat.
func (s *Suite) fleetPolicies(homo, het fleetDesign) (*report.Table, error) {
	specs := []des.ReplicaSpec{
		homo.spec("-1"), homo.spec("-2"), het.spec("-1"), het.spec("-2"),
	}
	aggregate := 2*(1e9/homo.pr.IntervalNS) + 2*(1e9/het.pr.IntervalNS)
	t := &report.Table{
		Title: "Extension — dispatch policy vs tail latency (2x homo-128 + 2x AutoHet, 98% load)",
		Note: fmt.Sprintf("Aggregate capacity %.0f req/s; per-replica capacities differ, so round robin "+
			"overloads the slower replicas while queue-aware policies stay stable.", aggregate),
		Header: []string{"Policy", "Completed", "Shed", "p50 (µs)", "p99 (µs)", "Throughput (req/s)"},
	}
	for _, policy := range des.Policies {
		cfg := des.DefaultConfig()
		cfg.Policy = policy
		cfg.Seed = s.Seed
		f, err := des.NewFleet(cfg, specs...)
		if err != nil {
			return nil, err
		}
		res, err := f.Run(des.Workload{
			ArrivalRate: 0.98 * aggregate,
			Requests:    4000,
			Seed:        s.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(string(policy), report.I(res.Completed), report.I(res.Shed),
			fmt.Sprintf("%.1f", res.P50NS/1000), fmt.Sprintf("%.1f", res.P99NS/1000),
			report.F(res.ThroughputRPS))
	}
	return t, nil
}

// fleetEqualArea compares one homogeneous 128x128 replica against four
// AutoHet replicas of (near-)equal total silicon area, offered the same
// stream at twice the homogeneous replica's capacity: the single chip sheds
// and saturates while the AutoHet fleet absorbs the load — the paper's RUE
// gain converted into fleet throughput.
func (s *Suite) fleetEqualArea(homo, het fleetDesign) (*report.Table, error) {
	homoCap := 1e9 / homo.pr.IntervalNS
	rate := 2 * homoCap
	t := &report.Table{
		Title: "Extension — equal-area fleets: 1x homo-128 vs 4x AutoHet (same offered load)",
		Note: fmt.Sprintf("Both fleets receive %.0f req/s — 2x the homogeneous replica's capacity. "+
			"Equal area buys ~4 AutoHet replicas and with them the headroom to serve it.", rate),
		Header: []string{"Fleet", "Area (mm²)", "Capacity (req/s)", "Completed", "Shed", "p99 (µs)", "Throughput (req/s)"},
	}
	cases := []struct {
		name  string
		specs []des.ReplicaSpec
	}{
		{"1x homo-128", []des.ReplicaSpec{homo.spec("")}},
		{"4x AutoHet", []des.ReplicaSpec{het.spec("-1"), het.spec("-2"), het.spec("-3"), het.spec("-4")}},
	}
	for _, c := range cases {
		cfg := des.DefaultConfig()
		cfg.Policy = des.JoinShortestQueue
		cfg.Seed = s.Seed
		f, err := des.NewFleet(cfg, c.specs...)
		if err != nil {
			return nil, err
		}
		res, err := f.Run(des.Workload{ArrivalRate: rate, Requests: 4000, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		var area, capacity float64
		for _, r := range f.Snapshot().Replicas {
			area += r.AreaUM2
			capacity += r.CapacityRPS
		}
		t.AddRow(c.name, fmt.Sprintf("%.1f", area/1e6), report.F(capacity),
			report.I(res.Completed), report.I(res.Shed),
			fmt.Sprintf("%.1f", res.P99NS/1000), report.F(res.ThroughputRPS))
	}
	return t, nil
}

// fleetFaults degrades one of three replicas mid-run with stuck-at faults
// above the degrade threshold (a chaos fault event a third into the run).
// Requests already queued there bounce to the healthy replicas (retry
// routing), which have the headroom to absorb the re-offered traffic:
// every admitted request still completes.
func (s *Suite) fleetFaults(homo fleetDesign) (*report.Table, error) {
	specs := []des.ReplicaSpec{homo.spec("-1"), homo.spec("-2"), homo.spec("-3")}
	aggregate := 3 * (1e9 / homo.pr.IntervalNS)
	const requests = 4000
	// 60% aggregate load: the two survivors absorb 90% load after the
	// degradation — strained but stable. Batching with a 2 ms collect
	// window means the replica is almost always holding a partial batch
	// when the fault lands, so the retry path visibly moves in-flight
	// requests to the survivors.
	w := fleet.Workload{ArrivalRate: 0.6 * aggregate, Requests: requests, Seed: s.Seed}

	cfg := fleet.DefaultConfig()
	cfg.Policy = fleet.RoundRobin
	cfg.MaxBatch = 16
	cfg.BatchTimeoutNS = 2e6
	cfg.MaxRetries = 3
	cfg.TimeScale = 1e-9 // never sleeps; the Result is the unpaced core's
	cfg.Seed = s.Seed
	spanNS := float64(requests) / w.ArrivalRate * 1e9
	const stuck = 0.05
	cfg.Chaos = chaos.Scripted(chaos.Event{AtNS: 0.3 * spanNS, Kind: chaos.Faults, Target: specs[0].Name, Value: stuck})
	f, err := fleet.New(cfg, specs...)
	if err != nil {
		return nil, err
	}
	res, err := fleet.Run(f, w)
	snap := f.Snapshot()
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: "Extension — retry routing around a mid-run fault (3x homo-128, 60% load, batch 16)",
		Note: fmt.Sprintf("Replica %s degrades (%.0f%% stuck-at cells) a third into the run; "+
			"its queued requests are re-dispatched and every admitted request completes: "+
			"%d offered = %d completed + %d shed, %d failed, %d retried.",
			specs[0].Name, 100*stuck, res.Offered, res.Completed,
			res.Shed, res.Failed, res.Retried),
		Header: []string{"Replica", "Degraded", "Served", "p99 (µs)"},
	}
	for _, r := range snap.Replicas {
		t.AddRow(r.Name, fmt.Sprintf("%t", r.Degraded), report.I(int(r.Served)),
			fmt.Sprintf("%.1f", r.P99NS/1000))
	}
	t.AddRow("fleet", "-", report.I(res.Completed), fmt.Sprintf("%.1f", res.P99NS/1000))
	return t, nil
}
