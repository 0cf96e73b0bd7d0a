package experiments

import (
	"fmt"
	"math"

	"autohet/internal/accel"
	"autohet/internal/des"
	"autohet/internal/dnn"
	"autohet/internal/noc"
	"autohet/internal/report"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Shard experiment — pipeline-parallel model sharding vs replicated serving.
// Each zoo model is cut into shardStages latency-balanced contiguous stages
// (sim.ShardPlan, mesh-priced), and the chain of one-replica-per-stage is
// offered the same load as a single whole-model replica of (near-)equal
// total silicon. Both fleets have the same steady-state capacity — a
// whole-model replica is already layer-pipelined at the bottleneck layer's
// interval, and the slowest stage of the cut contains that same layer — so
// the comparison isolates what sharding buys (a ~K× smaller largest chip)
// and what it costs (NoC transfer latency, per-stage queueing, and the
// pipeline bubble from stage imbalance).

// shardStages is the pipeline depth the experiment cuts each model into.
const shardStages = 4

// shardLoad offers this fraction of the chain's steady-state capacity.
const shardLoad = 0.8

// Shard generates the sharded-vs-replicated serving table.
func (s *Suite) Shard() (*report.Table, error) {
	mesh, err := noc.NewMeshFor(s.Cfg.TilesPerBank)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Extension — pipeline-parallel sharding vs replication (%d stages, %.0f%% load, mesh-priced transfers)",
			shardStages, 100*shardLoad),
		Header: []string{"Model", "Serving", "Replicas", "Total (mm²)", "Max chip (mm²)",
			"Transfer (µs)", "Throughput (req/s)", "p50 (µs)", "p99 (µs)", "Bubble"},
	}
	for _, m := range []*dnn.Model{dnn.AlexNet(), dnn.VGG11(), dnn.VGG16()} {
		p, err := accel.BuildPlan(s.Cfg, m, accel.Homogeneous(m.NumMappable(), xbar.Square(128)), true)
		if err != nil {
			return nil, err
		}
		sr, err := sim.ShardPlan(p, mesh, shardStages)
		if err != nil {
			return nil, err
		}
		w := des.Workload{
			ArrivalRate: shardLoad * 1e9 / sr.IntervalNS(),
			Requests:    3000,
			Seed:        s.Seed,
		}

		// Replicated baseline: one whole-model replica at the mesh-priced
		// latencies the cuts were balanced on.
		rep, err := runShardedFleet(w, 1, nil, s.Seed,
			des.ReplicaSpec{Name: m.Name, Pipeline: sim.PipelineFromResult(sr.Result, 1)})
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, "replicated", report.I(1),
			fmt.Sprintf("%.1f", p.Area()/1e6), fmt.Sprintf("%.1f", p.Area()/1e6), "-",
			report.F(rep.ThroughputRPS),
			fmt.Sprintf("%.1f", rep.P50NS/1000), fmt.Sprintf("%.1f", rep.P99NS/1000),
			fmt.Sprintf("%.3f", rep.BubbleFraction))

		// Sharded chain: one replica per stage, transfers priced on the mesh.
		specs := make([]des.ReplicaSpec, len(sr.Stages))
		transfers := make([]float64, len(sr.Stages)-1)
		var total, maxChip float64
		for i := range sr.Stages {
			st := &sr.Stages[i]
			specs[i] = des.ReplicaSpec{
				Name:     fmt.Sprintf("%s-s%d", m.Name, i),
				Pipeline: &sim.PipelineResult{FillNS: st.FillNS, IntervalNS: st.IntervalNS},
			}
			total += st.AreaUM2
			maxChip = math.Max(maxChip, st.AreaUM2)
			if i < len(transfers) {
				transfers[i] = st.TransferNS
			}
		}
		sh, err := runShardedFleet(w, len(sr.Stages), transfers, s.Seed, specs...)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, "sharded", report.I(len(sr.Stages)),
			fmt.Sprintf("%.1f", total/1e6), fmt.Sprintf("%.1f", maxChip/1e6),
			fmt.Sprintf("%.2f", sr.TransferNS/1000),
			report.F(sh.ThroughputRPS),
			fmt.Sprintf("%.1f", sh.P50NS/1000), fmt.Sprintf("%.1f", sh.P99NS/1000),
			fmt.Sprintf("%.3f", sh.BubbleFraction))
	}
	t.Note = "Equal capacity by construction (the bottleneck layer bounds both intervals); " +
		"sharding pays transfer latency, per-stage queueing, and the stage-imbalance bubble for a smaller " +
		"largest chip — modest here, because latency-balanced cuts leave the area-heavy FC layers in one " +
		"stage."
	return t, nil
}

// runShardedFleet runs one workload on the fleet core.
func runShardedFleet(w des.Workload, shards int, transfers []float64, seed int64, specs ...des.ReplicaSpec) (*des.Result, error) {
	cfg := des.DefaultConfig()
	cfg.QueueDepth = w.Requests
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.StageTransferNS = transfers
	f, err := des.NewFleet(cfg, specs...)
	if err != nil {
		return nil, err
	}
	return f.Run(w)
}
