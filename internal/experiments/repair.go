package experiments

import (
	"fmt"
	"math"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/fleet"
	"autohet/internal/repair"
	"autohet/internal/report"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Repair experiments — the fault-tolerance half of the fault story. The
// "faults" extension measures damage; these tables measure the cure:
// functional accuracy with detection + spare remapping + masking, and the
// fleet's online health loop absorbing a mid-run fault storm.

// Repair generates the repair extension tables.
func (s *Suite) Repair() ([]*report.Table, error) {
	acc, err := s.repairAccuracy()
	if err != nil {
		return nil, err
	}
	storm, err := s.repairStorm()
	if err != nil {
		return nil, err
	}
	return []*report.Table{acc, storm}, nil
}

// repairAccuracy runs functional inference on a small CNN under rising
// stuck-at rates, with no repair, with mask-only degradation (no spares),
// and with provisioned spares — the accuracy-vs-fault-rate story with and
// without the repair subsystem.
func (s *Suite) repairAccuracy() (*report.Table, error) {
	m, err := dnn.NewModel("probe-cnn", 8, 8, 1, []*dnn.Layer{
		{Name: "c1", Kind: dnn.Conv, K: 3, InC: 1, OutC: 8, Stride: 1, Pad: 1},
		{Name: "p1", Kind: dnn.Pool, K: 2, Stride: 2},
		{Name: "c2", Kind: dnn.Conv, K: 3, InC: 8, OutC: 16, Stride: 1, Pad: 1},
		{Name: "p2", Kind: dnn.Pool, K: 4, Stride: 4},
		{Name: "f1", Kind: dnn.FC, K: 1, InC: 16, OutC: 10, Stride: 1},
	})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Extension — functional accuracy vs fault rate, with and without repair (64x64 crossbars)",
		Note: "Relative output error vs the float reference. Masking reprograms known-bad cells toward " +
			"the ideal weight (bounded error, no spares needed); spare columns + spare PEs repair " +
			"outright — bit-exact with the fault-free accelerator while coverage lasts.",
		Header: []string{"Stuck-at rate", "unrepaired", "mask-only", "spares (8 cols + 1 PE)"},
	}
	input := dnn.SyntheticTensor(1, 8, 8, s.Seed)
	ref, err := dnn.RunReference(m, input, s.Seed)
	if err != nil {
		return nil, err
	}
	bare, err := accel.BuildPlan(s.Cfg, m, accel.Homogeneous(3, xbar.Square(64)), true)
	if err != nil {
		return nil, err
	}
	spared, err := accel.Build(s.Cfg, m, accel.PlanSpec{
		Strategy: accel.Homogeneous(3, xbar.Square(64)),
		Shared:   true,
		Spares:   repair.Provision{SpareCols: 8, SpareXBs: 1},
	})
	if err != nil {
		return nil, err
	}
	// One engine per plan: weights are quantized and planes packed once,
	// then every (fault rate, repair mode) combination reuses them.
	engines := map[*accel.Plan]*sim.Engine{bare: sim.NewEngine(bare), spared: sim.NewEngine(spared)}
	relErr := func(p *accel.Plan, opts sim.InferenceOptions) (float64, error) {
		got, _, err := engines[p].Run(input, opts)
		if err != nil {
			return 0, err
		}
		var e, n float64
		for i := range ref {
			d := got[i] - ref[i]
			e += d * d
			n += ref[i] * ref[i]
		}
		return math.Sqrt(e / n), nil
	}
	for _, rate := range []float64{0.001, 0.005, 0.02, 0.05} {
		fm := &fault.Model{StuckAtZero: rate / 2, StuckAtOne: rate / 2, Seed: s.Seed}
		raw, err := relErr(bare, sim.InferenceOptions{Seed: s.Seed, Faults: fm})
		if err != nil {
			return nil, err
		}
		masked, err := relErr(bare, sim.InferenceOptions{Seed: s.Seed, Faults: fm, Repair: &repair.Policy{}})
		if err != nil {
			return nil, err
		}
		rep, err := relErr(spared, sim.InferenceOptions{Seed: s.Seed, Faults: fm, Repair: &repair.Policy{}})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f%%", 100*rate), fmt.Sprintf("%.4f", raw),
			fmt.Sprintf("%.4f", masked), fmt.Sprintf("%.4f", rep))
	}
	return t, nil
}

// repairStorm serves a paced workload across three replicas, injects a
// fault storm into one mid-life, and lets detection sweeps repair it —
// the fleet self-healing while serving, with post-repair throughput
// recovering to the pre-fault steady state.
func (s *Suite) repairStorm() (*report.Table, error) {
	cfg := fleet.DefaultConfig()
	cfg.Policy = fleet.JoinShortestQueue
	cfg.TimeScale = 1
	cfg.HealthSweepNS = -1 // sweeps stepped explicitly between phases
	cfg.MaxRetries = 3
	cfg.Seed = s.Seed
	pr := func() *sim.PipelineResult {
		return &sim.PipelineResult{FillNS: 1e6, IntervalNS: 200_000}
	}
	rs := &fleet.RepairSpec{Capacity: 0.05, MissRate: 0.5}
	f, err := fleet.New(cfg,
		fleet.ReplicaSpec{Name: "a", Pipeline: pr(), Repair: rs},
		fleet.ReplicaSpec{Name: "b", Pipeline: pr(), Repair: rs},
		fleet.ReplicaSpec{Name: "c", Pipeline: pr(), Repair: rs})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: "Extension — fleet fault storm with online self-repair (3 replicas, 90% load)",
		Note: "Replica b takes a 2% stuck-at storm (2x the degrade threshold) mid-life. Each " +
			"detection sweep catches half the pending faults and repairs them from spare capacity, " +
			"so health recovers geometrically and throughput returns to the pre-fault steady state.",
		Header: []string{"Phase", "health(b)", "Completed", "Shed", "p99 (ms)", "Throughput (req/s)"},
	}
	w := fleet.Workload{ArrivalRate: 13.5e3, Requests: 1200, Seed: s.Seed}
	phase := func(name string) error {
		res, err := fleet.Run(f, w)
		if err != nil {
			return err
		}
		h := f.Snapshot().Replicas[1].Health
		t.AddRow(name, fmt.Sprintf("%.3f", h), report.I(res.Completed), report.I(res.Shed),
			fmt.Sprintf("%.1f", res.P99NS/1e6), report.F(res.ThroughputRPS))
		return nil
	}
	if err := phase("pre-storm"); err != nil {
		return nil, err
	}
	if err := f.InjectFault("b", &fault.Model{StuckAtZero: 0.02, Seed: s.Seed}); err != nil {
		return nil, err
	}
	if err := phase("storm (b degraded)"); err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		f.Sweep()
	}
	if err := phase("post-repair (8 sweeps)"); err != nil {
		return nil, err
	}
	return t, nil
}
