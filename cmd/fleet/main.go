// Command fleet serves an inference workload on a multi-replica accelerator
// deployment: each replica group wraps a mapped design (a homogeneous
// crossbar shape or an explicit AutoHet strategy), and a dispatcher spreads
// a request stream across them under a pluggable load-balancing policy,
// with per-replica dynamic batching, bounded admission queues, latency
// budgets, and retry routing away from fault-degraded replicas.
//
// Usage:
//
//	fleet -model VGG16 -spec "4*128x128" -policy jsq -load 0.9
//	fleet -model VGG16 -spec "2*128x128;2*L1:72x64 L2-L16:576x512" -policy p2c
//	fleet -model VGG16 -spec "3*128x128" -fault-replica g0-1 -fault-at 0.3
//
// Every run builds one fleet core (internal/des) from the flags and offers
// it one -trace arrival process. -timescale > 0 (default 0.2) paces the
// core's events on the wall clock through the internal/fleet runtime,
// which serves the /metrics endpoint's live fleet families and adds a
// per-replica latency table; -timescale 0 pops them as fast as the host
// allows. Both print the same Result for the same flags; only the wall
// time differs. Unpaced runs simulate cluster-scale fleets: tile the parsed
// spec up to -replicas and split it into -clusters for two-level routing:
//
//	fleet -timescale 0 -spec "4*128x128" -replicas 10000 -clusters 100 \
//	      -trace bursty -requests 1000000 -policy jsq
//
// -workers shards the fleet into parallel per-cluster simulation lanes
// (round-robin cluster routing required; a paced, -chaos or -scale-target
// run is serial; results are bit-identical to -workers 1):
//
//	fleet -timescale 0 -spec "4*128x128" -replicas 100000 -clusters 1000 \
//	      -trace bursty -requests 10000000 -policy jsq -cluster-policy rr -workers 8
//
// -chaos injects a seeded fault storm (correlated crashes plus fail-slow
// replicas, timed as fractions of the run), -fault-replica a stuck-cell
// fault healed by -repair-capacity spares; either schedule lets a bounced
// request retry 3 times. -resilience turns on the client-side stack that
// rides storms out:
//
//	fleet -timescale 0 -spec "4*128x128" -replicas 64 -requests 100000 \
//	      -budget 400000 -chaos -resilience
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"autohet/internal/accel"
	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/dnn"
	"autohet/internal/fleet"
	"autohet/internal/hw"
	"autohet/internal/noc"
	"autohet/internal/obs"
	"autohet/internal/serving"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// options holds every flag's value.
type options struct {
	model, spec, traceName     string
	policy, clusterPolicy      string
	hwConfig, metricsAddr      string
	load                       float64
	requests, replicas, shards int
	clusters, workers          int
	batch, queue               int
	batchTimeoutUS, budgetUS   float64
	seed                       int64
	timescale                  float64
	repairCap, repairMiss      float64
	scaleTarget, admitCap      float64
	hold                       time.Duration
	fault                      faultInjection
	chaos                      chaosOpts
}

// bindFlags registers every flag on fs; fs.Parse fills the returned options.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.model, "model", "VGG16", "model name (see dnn.ByName)")
	fs.StringVar(&o.spec, "spec", "4*128x128",
		`replica groups, ';'-separated: "N*shape" or "N*strategy"`)
	fs.StringVar(&o.policy, "policy", "jsq", "dispatch policy: rr, least-outstanding, jsq, p2c")
	fs.Float64Var(&o.load, "load", 0.8, "offered load as a fraction of aggregate capacity")
	fs.IntVar(&o.requests, "requests", 5000, "requests to offer")
	fs.IntVar(&o.batch, "batch", 1, "max dynamic batch size per replica (1 = no batching)")
	fs.Float64Var(&o.batchTimeoutUS, "batch-timeout", 100, "batch close timeout in virtual µs")
	fs.IntVar(&o.queue, "queue", 256, "per-replica admission queue depth")
	fs.Float64Var(&o.budgetUS, "budget", 0, "per-request latency budget in virtual µs (0 = none)")
	fs.Int64Var(&o.seed, "seed", 0, "arrival-process seed (0 = the default fixed stream)")
	fs.Float64Var(&o.timescale, "timescale", 0.2,
		"wall-clock pacing factor (1 = real time; 0 = unpaced, as fast as the host allows)")
	fs.StringVar(&o.fault.replica, "fault-replica", "", "replica name to degrade mid-run (see printed legend)")
	fs.Float64Var(&o.fault.rate, "fault-rate", 0.05, "stuck-at cell rate injected into -fault-replica")
	fs.Float64Var(&o.fault.at, "fault-at", 0.3, "injection instant as a fraction of the run")
	fs.Float64Var(&o.repairCap, "repair-capacity", 0, "stuck-at cell rate each replica's spares can absorb (0 = no self-repair)")
	fs.Float64Var(&o.repairMiss, "repair-miss", 0, "per-sweep detection miss probability of the online health loop")
	fs.StringVar(&o.hwConfig, "hwconfig", "", "JSON hardware-config file (empty = paper defaults)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"address serving /metrics (Prometheus text) and /debug/pprof/ (empty = disabled)")
	fs.DurationVar(&o.hold, "hold", 0,
		"keep the metrics endpoint up this long after the run (for scraping; needs -metrics-addr)")
	fs.IntVar(&o.shards, "shards", 1,
		"pipeline-parallel stages: cut the model into this many latency-balanced stages and chain requests through one replica per stage (needs a single-design -spec)")
	fs.StringVar(&o.traceName, "trace", "poisson", "arrival process: poisson, diurnal, bursty, pareto")
	fs.IntVar(&o.replicas, "replicas", 0, "tile the -spec replicas up to this fleet size (0 = spec as written)")
	fs.IntVar(&o.clusters, "clusters", 0,
		"cluster count for two-level routing (0 = one cluster per 100 replicas)")
	fs.IntVar(&o.workers, "workers", 1,
		"parallel simulation lanes (needs -cluster-policy rr; a paced, -chaos or -scale-target run is serial; results identical to -workers 1)")
	fs.StringVar(&o.clusterPolicy, "cluster-policy", "", "cluster-level routing policy (empty = same as -policy)")
	fs.Float64Var(&o.scaleTarget, "scale-target", 0, "autoscaler utilization target in (0,1] (0 = autoscaling off)")
	fs.Float64Var(&o.admitCap, "admit-queue-cap", 0, "admission control: max queued requests per active replica (0 = off)")
	fs.BoolVar(&o.chaos.on, "chaos", false, "inject a seeded fault storm (crashes + fail-slow; see -chaos-* knobs)")
	fs.Float64Var(&o.chaos.at, "chaos-at", 0.3, "storm start as a fraction of the run")
	fs.Float64Var(&o.chaos.mttr, "chaos-mttr", 0.2,
		"crash outage length as a fraction of the run (fail-slow lasts twice this)")
	fs.Float64Var(&o.chaos.crashFrac, "chaos-crash-frac", 0.25, "fraction of replicas the storm crashes")
	fs.Float64Var(&o.chaos.slowFrac, "chaos-slow-frac", 0.125, "fraction of replicas the storm makes fail-slow")
	fs.Float64Var(&o.chaos.slowFactor, "chaos-slow-factor", 10, "fail-slow service-time multiplier")
	fs.BoolVar(&o.chaos.resilience, "resilience", false,
		"enable client-side resilience (retry + hedging + circuit breakers + brownout)")
	return o
}

// chaosOpts carries the fault-storm and resilience flags through run. The
// storm is timed in fractions of the run's virtual span so one set of
// flags scales from a 5k-request paced run to a 1M-request unpaced run.
type chaosOpts struct {
	on         bool
	at         float64 // storm start, fraction of the run
	mttr       float64 // crash outage length, fraction of the run (slowdowns last 2x)
	crashFrac  float64
	slowFrac   float64
	slowFactor float64
	resilience bool
}

// faultInjection is the -fault-* flags: a stuck-at-0 fault of rate cells
// landing on replica at a fraction of the run.
type faultInjection struct {
	replica  string
	rate, at float64
}

// schedule is the run's chaos schedule over the replica names for a run
// spanning spanNS of virtual time: the seeded -chaos storm and the -fault-*
// injection (nil when neither is asked for). An injection naming a replica
// the fleet lacks warns and is dropped.
func (c chaosOpts) schedule(inj faultInjection, names []string, spanNS float64, seed int64) *chaos.Schedule {
	var parts []*chaos.Schedule
	if c.on {
		storm := chaos.Merge(
			chaos.CrashStorm(c.at*spanNS, c.mttr*spanNS, names, c.crashFrac, seed),
			chaos.SlowStorm(c.at*spanNS, 2*c.mttr*spanNS, names, c.slowFrac, c.slowFactor, seed))
		fmt.Printf("chaos: %d scheduled events — crash %.0f%% at %.0f%% of the run (mttr %.0f%%), %.0f%% fail-slow %gx\n",
			len(storm.Events), 100*c.crashFrac, 100*c.at, 100*c.mttr, 100*c.slowFrac, c.slowFactor)
		parts = append(parts, storm)
	}
	if inj.replica != "" {
		if slices.Contains(names, inj.replica) {
			parts = append(parts, chaos.Scripted(chaos.Event{
				AtNS: inj.at * spanNS, Kind: chaos.Faults, Target: inj.replica, Value: inj.rate}))
			fmt.Printf("fault: %.1f%% stuck-at cells into %s at %.0f%% of the run\n",
				100*inj.rate, inj.replica, 100*inj.at)
		} else {
			fmt.Fprintf(os.Stderr, "fleet: no replica %q; fault injection skipped\n", inj.replica)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return chaos.Merge(parts...)
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

// serveMetrics exposes the obs registry and pprof on addr. The listener is
// bound synchronously (so the printed URL is live before the workload
// starts); requests are served in the background for the process lifetime.
func serveMetrics(addr string) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default.Handler())
	// The pprof import registered its handlers on the default mux.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "fleet: metrics server:", err)
		}
	}()
	return nil
}

// parseSpec expands "N*shapeOrStrategy" groups into replica specs. A group
// text containing ':' is an explicit accel strategy; otherwise it is a
// homogeneous crossbar shape.
func parseSpec(cfg hw.Config, m *dnn.Model, text string, batch int) ([]fleet.ReplicaSpec, error) {
	var specs []fleet.ReplicaSpec
	for gi, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		countText, designText, ok := strings.Cut(part, "*")
		if !ok {
			countText, designText = "1", part
		}
		count, err := strconv.Atoi(strings.TrimSpace(countText))
		if err != nil || count < 1 {
			return nil, fmt.Errorf("bad replica count in group %q", part)
		}
		designText = strings.TrimSpace(designText)
		var st accel.Strategy
		if strings.Contains(designText, ":") {
			st, err = accel.ParseStrategy(designText)
		} else {
			var shape xbar.Shape
			shape, err = xbar.ParseShape(designText)
			st = accel.Homogeneous(m.NumMappable(), shape)
		}
		if err != nil {
			return nil, err
		}
		if len(st) != m.NumMappable() {
			return nil, fmt.Errorf("group %q covers %d layers, %s has %d",
				part, len(st), m.Name, m.NumMappable())
		}
		p, err := accel.BuildPlan(cfg, m, st, true)
		if err != nil {
			return nil, err
		}
		pr, err := sim.SimulateBatch(p, batch)
		if err != nil {
			return nil, err
		}
		fmt.Printf("group g%d: %d x %s — capacity %.0f req/s, area %.1f mm²\n",
			gi, count, designText, 1e9/pr.IntervalNS, p.Area()/1e6)
		for ci := 0; ci < count; ci++ {
			specs = append(specs, fleet.ReplicaSpec{
				Name: fmt.Sprintf("g%d-%d", gi, ci), Pipeline: pr, Plan: p,
			})
		}
	}
	return specs, nil
}

// run builds the fleet the flags describe, offers it the -trace arrival
// process — paced on the wall clock when -timescale is nonzero, unpaced at
// 0 — and prints the result block.
func run(o *options) (*des.Result, error) {
	m, err := dnn.ByName(o.model)
	if err != nil {
		return nil, err
	}
	if o.metricsAddr != "" {
		if err := serveMetrics(o.metricsAddr); err != nil {
			return nil, err
		}
	}
	hwCfg, err := hw.LoadConfig(o.hwConfig)
	if err != nil {
		return nil, err
	}
	if o.batch < 1 {
		return nil, fmt.Errorf("batch %d", o.batch)
	}
	specs, err := parseSpec(hwCfg, m, o.spec, o.batch)
	if err != nil {
		return nil, err
	}
	var sr *sim.ShardResult
	if o.shards > 1 {
		if sr, err = shardDesign(hwCfg, specs, o.shards); err != nil {
			return nil, err
		}
	}
	if o.repairCap > 0 {
		rs := fleet.RepairSpec{Capacity: o.repairCap, MissRate: o.repairMiss}
		for i := range specs {
			specs[i].Repair = &rs
		}
		fmt.Printf("self-repair: spares absorb %.2f%% stuck cells, %.0f%% detection miss per sweep\n",
			100*o.repairCap, 100*o.repairMiss)
	}
	cfg, specs, gen, err := o.fleetConfig(tileSpecs(specs, o.replicas), sr)
	if err != nil {
		return nil, err
	}

	var res *des.Result
	var snap *des.Snapshot
	if o.timescale != 0 {
		f, err := fleet.New(fleet.Config{Config: cfg, TimeScale: o.timescale}, specs...)
		if err != nil {
			return nil, err
		}
		if res, err = fleet.RunTrace(f, gen, o.requests, o.budgetUS*1000); err != nil {
			return nil, err
		}
		snap = f.Snapshot()
	} else {
		f, err := des.NewFleet(cfg, specs...)
		if err != nil {
			return nil, err
		}
		if res, err = f.RunTrace(gen, o.requests, o.budgetUS*1000); err != nil {
			return nil, err
		}
	}
	printResult(res, o.workers, snap)
	if o.hold > 0 && o.metricsAddr != "" {
		fmt.Printf("\nholding metrics endpoint for %v\n", o.hold)
		time.Sleep(o.hold)
	}
	return res, nil
}

// fleetConfig turns the flags into the run's core config, its replica
// specs (rewritten per stage when sharded) and its arrival generator, and
// prints the capacity line.
func (o *options) fleetConfig(specs []fleet.ReplicaSpec, sr *sim.ShardResult) (des.Config, []fleet.ReplicaSpec, trace.Generator, error) {
	cfg := des.DefaultConfig()
	var err error
	if cfg.Policy, err = fleet.ParsePolicy(o.policy); err != nil {
		return cfg, nil, nil, err
	}
	if o.clusterPolicy != "" {
		if cfg.ClusterPolicy, err = fleet.ParsePolicy(o.clusterPolicy); err != nil {
			return cfg, nil, nil, err
		}
	}
	cfg.MaxBatch = o.batch
	cfg.BatchTimeoutNS = o.batchTimeoutUS * 1000
	cfg.QueueDepth = o.queue
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	cfg.Clusters = o.clusters
	if cfg.Clusters <= 0 {
		cfg.Clusters = (len(specs) + 99) / 100
	}
	var aggregate float64
	if sr != nil {
		if o.clusters > 1 {
			return cfg, nil, nil, fmt.Errorf("-shards needs flat routing (-clusters 1)")
		}
		cfg.Clusters = 1
		cfg.Shards = len(sr.Stages)
		cfg.StageTransferNS = stageTransfers(sr)
		specs = shardSpecs(specs, sr)
		aggregate = chainCapacityRPS(len(specs), sr)
		fmt.Printf("fleet: %d replicas across %d pipeline stages, chain capacity %.0f req/s",
			len(specs), len(sr.Stages), aggregate)
	} else {
		for _, s := range specs {
			aggregate += 1e9 / s.Pipeline.IntervalNS
		}
		fmt.Printf("fleet: %d replicas in %d clusters, aggregate capacity %.0f req/s",
			len(specs), cfg.Clusters, aggregate)
	}
	rate := o.load * aggregate
	fmt.Printf("; offering %.0f%% = %.0f req/s (%s arrivals)\n", 100*o.load, rate, o.traceName)
	seed := o.seed
	if seed == 0 {
		seed = serving.DefaultSeed
	}
	gen, err := trace.Parse(o.traceName, rate, seed)
	if err != nil {
		return cfg, nil, nil, err
	}

	if o.scaleTarget != 0 {
		cfg.Scaler = des.TargetUtilization{Target: o.scaleTarget, Min: 1}
	}
	if o.admitCap != 0 {
		cfg.Admit = des.QueueCap{MaxQueuedPerActive: o.admitCap}
	}
	if o.chaos.resilience {
		cfg.Resilience = chaos.DefaultResilience()
		fmt.Println("resilience: retry + hedging + circuit breakers + brownout enabled")
	}
	cfg.Chaos = o.chaos.schedule(o.fault, replicaNames(specs), float64(o.requests)/rate*1e9, o.seed)
	if cfg.Chaos != nil {
		// Only scheduled faults bounce queued requests, and a run with a
		// schedule is serial anyway: fault-free runs keep their lanes.
		cfg.MaxRetries = 3
	}
	return cfg, specs, gen, nil
}

// printResult prints the result block: the Result line, the lanes,
// admission and chaos counters, the per-cluster table and, from a paced
// run's snapshot (nil when unpaced: only the runtime keeps per-replica
// latency histograms), the per-replica table.
func printResult(res *des.Result, workers int, snap *des.Snapshot) {
	fmt.Printf("\n%v\n", res)
	if workers > 1 {
		fmt.Printf("parallel lanes: %d of %d workers requested\n", res.Lanes, workers)
	}
	if res.AdmissionShed > 0 || res.ScaleActions > 0 {
		fmt.Printf("admission shed %d, autoscaler actions %d\n", res.AdmissionShed, res.ScaleActions)
	}
	if res.ChaosEvents > 0 || res.Retried > 0 || res.Hedged > 0 || res.BrownoutShed > 0 {
		fmt.Printf("chaos events %d; retried %d, hedged %d (%d wasted), brownout shed %d, failed %d, unroutable %d\n",
			res.ChaosEvents, res.Retried, res.Hedged, res.HedgeWasted, res.BrownoutShed,
			res.Failed, res.Unroutable)
	}
	// Per-cluster and per-replica tables, each elided past 64 rows.
	if len(res.Clusters) <= 64 {
		fmt.Printf("\n%-8s %-9s %-8s %-10s %-11s %s\n", "cluster", "replicas", "active", "served", "adm. shed", "peak queue")
		for _, cl := range res.Clusters {
			fmt.Printf("%-8s %-9d %-8d %-10d %-11d %d\n", cl.Name, cl.Replicas, cl.Active, cl.Served, cl.AdmissionShed, cl.PeakQueued)
		}
	}
	if snap == nil || len(snap.Replicas) > 64 {
		return
	}
	fmt.Printf("\n%-8s %-7s %-8s %-8s %-8s %-11s %-12s %-12s %s\n",
		"replica", "health", "repairs", "served", "batches", "mean batch", "p50 (µs)", "p99 (µs)", "max (µs)")
	for _, r := range snap.Replicas {
		fmt.Printf("%-8s %-7.2f %-8d %-8d %-8d %-11.2f %-12.1f %-12.1f %.1f\n",
			r.Name, r.Health, r.Repairs, r.Served, r.Batches, r.MeanBatch,
			r.P50NS/1000, r.P99NS/1000, r.MaxNS/1000)
	}
}

// tileSpecs replicates the parsed spec round-robin up to n replicas. Plans
// and pipeline results are shared pointers, so a 10k-replica fleet costs
// 10k spec structs, not 10k mapped designs.
func tileSpecs(specs []fleet.ReplicaSpec, n int) []fleet.ReplicaSpec {
	if n <= len(specs) {
		return specs
	}
	tiled := make([]fleet.ReplicaSpec, n)
	for i := range tiled {
		tiled[i] = specs[i%len(specs)]
		tiled[i].Name = fmt.Sprintf("r%d", i)
	}
	return tiled
}

// shardDesign cuts the (single) parsed design into priced pipeline stages
// on the bank's mesh and prints the stage table.
func shardDesign(cfg hw.Config, specs []fleet.ReplicaSpec, shards int) (*sim.ShardResult, error) {
	for _, s := range specs[1:] {
		if s.Plan != specs[0].Plan {
			return nil, fmt.Errorf("-shards needs a single-design -spec: every replica must share one plan")
		}
	}
	mesh, err := noc.NewMeshFor(cfg.TilesPerBank)
	if err != nil {
		return nil, err
	}
	sr, err := sim.ShardPlan(specs[0].Plan, mesh, shards)
	if err != nil {
		return nil, err
	}
	fmt.Printf("sharded: %d stages, chain fill %.0f ns, interval %.0f ns, inter-stage transfer %.0f ns total\n",
		len(sr.Stages), sr.FillNS(), sr.IntervalNS(), sr.TransferNS)
	fmt.Printf("%-6s %-8s %-11s %-13s %-11s %s\n", "stage", "layers", "fill (ns)", "interval (ns)", "area (mm²)", "transfer (ns)")
	for si := range sr.Stages {
		st := &sr.Stages[si]
		fmt.Printf("s%-5d %-8s %-11.0f %-13.0f %-11.2f %.0f\n",
			si, fmt.Sprintf("%d-%d", st.Stage.Lo, st.Stage.Hi-1), st.FillNS, st.IntervalNS, st.AreaUM2/1e6, st.TransferNS)
	}
	fmt.Println()
	return sr, nil
}

// shardSpecs rewrites the replica specs for pipeline-parallel serving: the
// fleet engines split replicas into contiguous stage groups (stage s is
// replicas[s·N/K : (s+1)·N/K]), so the same bounds here hand each replica
// exactly the timing of the stage it will host. The whole-model plan pointer
// is dropped — its area no longer describes a stage replica.
func shardSpecs(specs []fleet.ReplicaSpec, sr *sim.ShardResult) []fleet.ReplicaSpec {
	n, k := len(specs), len(sr.Stages)
	out := make([]fleet.ReplicaSpec, n)
	for s := 0; s < k; s++ {
		st := &sr.Stages[s]
		pr := &sim.PipelineResult{FillNS: st.FillNS, IntervalNS: st.IntervalNS}
		for i := s * n / k; i < (s+1)*n/k; i++ {
			out[i] = specs[i]
			out[i].Pipeline = pr
			out[i].Plan = nil
		}
	}
	return out
}

// stageTransfers extracts the fleet-config transfer vector (entries 0..K−2).
func stageTransfers(sr *sim.ShardResult) []float64 {
	transfers := make([]float64, len(sr.Stages)-1)
	for s := range transfers {
		transfers[s] = sr.Stages[s].TransferNS
	}
	return transfers
}

// chainCapacityRPS is the sharded fleet's steady-state service ceiling: the
// bottleneck stage's aggregate initiation rate over its replica group.
func chainCapacityRPS(n int, sr *sim.ShardResult) float64 {
	k := len(sr.Stages)
	cap := math.Inf(1)
	for s := 0; s < k; s++ {
		group := float64((s+1)*n/k - s*n/k)
		if c := group * 1e9 / sr.Stages[s].IntervalNS; c < cap {
			cap = c
		}
	}
	return cap
}

// replicaNames collects the (already assigned) spec names for a storm.
func replicaNames(specs []fleet.ReplicaSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
