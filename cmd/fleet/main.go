// Command fleet serves an inference workload on a multi-replica accelerator
// deployment: each replica group wraps a mapped design (a homogeneous
// crossbar shape or an explicit AutoHet strategy), and a dispatcher spreads
// a Poisson request stream across them under a pluggable load-balancing
// policy, with per-replica dynamic batching, bounded admission queues,
// latency budgets, and retry routing away from fault-degraded replicas.
//
// Usage:
//
//	fleet -model VGG16 -spec "4*128x128" -policy jsq -load 0.9
//	fleet -model VGG16 -spec "2*128x128;2*L1:72x64 L2-L16:576x512" -policy p2c
//	fleet -model VGG16 -spec "3*128x128" -fault-replica g0-1 -fault-at 0.3
//
// Both engines run one fleet core (internal/des). The -engine flag picks
// its driver: "goroutine" (default) paces the core's events on the wall
// clock (-timescale) and serves the /metrics endpoint's live fleet
// families; "des" pops them as fast as the host allows, which simulates
// cluster-scale fleets — tile the parsed spec up to -replicas, split into
// -clusters for two-level routing, and drive it with a -trace arrival
// process:
//
//	fleet -engine des -spec "4*128x128" -replicas 10000 -clusters 100 \
//	      -trace bursty -requests 1000000 -policy jsq
//
// -workers shards a DES fleet into parallel per-cluster simulation lanes
// (round-robin cluster routing required; a -chaos or -scale-target run is
// serial; results are bit-identical to -workers 1):
//
//	fleet -engine des -spec "4*128x128" -replicas 100000 -clusters 1000 \
//	      -trace bursty -requests 10000000 -policy jsq -cluster-policy rr -workers 8
//
// -chaos injects a seeded fault storm (correlated crashes plus fail-slow
// replicas, timed as fractions of the run), -fault-replica a stuck-cell
// fault healed by -repair-capacity spares, into either engine; -resilience
// turns on the client-side stack that rides storms out:
//
//	fleet -engine des -spec "4*128x128" -replicas 64 -requests 100000 \
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

// desOpts carries the DES-engine flags through run.
type desOpts struct {
	engine    string
	traceName string
	replicas  int
	clusters  int
	// workers > 1 shards the fleet into parallel cluster lanes (see
	// des.Config.Workers); clusterPolicy overrides the cluster-level
	// routing policy ("" = same as the replica policy). The sharded path
	// needs round-robin cluster routing, e.g. -policy jsq -cluster-policy rr,
	// and runs serially under -chaos or -scale-target.
	workers       int
	clusterPolicy string
	// scaleTarget enables the TargetUtilization autoscaler (0 = off);
	// admitCap enables QueueCap admission control (0 = off).
	scaleTarget float64
	admitCap    float64
}

// chaosOpts carries the fault-storm and resilience flags through run. The
// storm is timed in fractions of the run's virtual span so one set of
// flags scales from a 5k-request paced run to a 1M-request DES run.
type chaosOpts struct {
	on         bool
	at         float64 // storm start, fraction of the run
	mttr       float64 // crash outage length, fraction of the run (slowdowns last 2x)
	crashFrac  float64
	slowFrac   float64
	slowFactor float64
	resilience bool
}

// storm builds the seeded schedule over the replica names for a run
// spanning spanNS of virtual time.
func (c chaosOpts) storm(names []string, spanNS float64, seed int64) *chaos.Schedule {
	return chaos.Merge(
		chaos.CrashStorm(c.at*spanNS, c.mttr*spanNS, names, c.crashFrac, seed),
		chaos.SlowStorm(c.at*spanNS, 2*c.mttr*spanNS, names, c.slowFrac, c.slowFactor, seed),
	)
}

// faultInjection is the -fault-* flags: a stuck-at-0 fault of rate cells
// landing on replica at a fraction of the run.
type faultInjection struct {
	replica  string
	rate, at float64
}

// schedule is the run's chaos schedule: the -chaos storm and the -fault-*
// injection (nil when neither is asked for). An injection naming a replica
// the fleet lacks warns and is dropped.
func (c chaosOpts) schedule(inj faultInjection, names []string, spanNS float64, seed int64) *chaos.Schedule {
	var parts []*chaos.Schedule
	if c.on {
		storm := c.storm(names, spanNS, seed)
		fmt.Printf("chaos: %d scheduled events — crash %.0f%% at %.0f%% of the run (mttr %.0f%%), %.0f%% fail-slow %gx\n",
			len(storm.Events), 100*c.crashFrac, 100*c.at, 100*c.mttr, 100*c.slowFrac, c.slowFactor)
		parts = append(parts, storm)
	}
	if inj.replica != "" {
		known := false
		for _, n := range names {
			known = known || n == inj.replica
		}
		if known {
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
	model := flag.String("model", "VGG16", "model name (see dnn.ByName)")
	spec := flag.String("spec", "4*128x128",
		`replica groups, ';'-separated: "N*shape" or "N*strategy"`)
	policy := flag.String("policy", "jsq", "dispatch policy: rr, least-outstanding, jsq, p2c")
	load := flag.Float64("load", 0.8, "offered load as a fraction of aggregate capacity")
	requests := flag.Int("requests", 5000, "requests to offer")
	batch := flag.Int("batch", 1, "max dynamic batch size per replica (1 = no batching)")
	batchTimeout := flag.Float64("batch-timeout", 100, "batch close timeout in virtual µs")
	queue := flag.Int("queue", 256, "per-replica admission queue depth")
	budget := flag.Float64("budget", 0, "per-request latency budget in virtual µs (0 = none)")
	seed := flag.Int64("seed", 0, "arrival-process seed (0 = the default fixed stream)")
	timescale := flag.Float64("timescale", 0.2, "wall-clock pacing factor (1 = real time)")
	faultReplica := flag.String("fault-replica", "", "replica name to degrade mid-run (see printed legend)")
	faultRate := flag.Float64("fault-rate", 0.05, "stuck-at cell rate injected into -fault-replica")
	faultAt := flag.Float64("fault-at", 0.3, "injection instant as a fraction of the run")
	repairCap := flag.Float64("repair-capacity", 0, "stuck-at cell rate each replica's spares can absorb (0 = no self-repair)")
	repairMiss := flag.Float64("repair-miss", 0, "per-sweep detection miss probability of the online health loop")
	hwConfig := flag.String("hwconfig", "", "JSON hardware-config file (empty = paper defaults)")
	metricsAddr := flag.String("metrics-addr", "",
		"address serving /metrics (Prometheus text) and /debug/pprof/ (empty = disabled)")
	hold := flag.Duration("hold", 0,
		"keep the metrics endpoint up this long after the run (for scraping; needs -metrics-addr)")
	shards := flag.Int("shards", 1,
		"pipeline-parallel stages: cut the model into this many latency-balanced stages and chain requests through one replica per stage (needs a single-design -spec)")
	engine := flag.String("engine", "goroutine", "driver: goroutine (wall-clock paced) or des (unpaced virtual time)")
	traceName := flag.String("trace", "poisson",
		"arrival process for -engine des: poisson, diurnal, bursty, pareto")
	replicas := flag.Int("replicas", 0,
		"tile the -spec replicas up to this fleet size (-engine des only; 0 = spec as written)")
	clusters := flag.Int("clusters", 0,
		"cluster count for two-level routing (-engine des only; 0 = one cluster per 100 replicas)")
	workers := flag.Int("workers", 1,
		"parallel simulation lanes (-engine des only; needs -cluster-policy rr; a -chaos or -scale-target run is serial; results identical to -workers 1)")
	clusterPolicy := flag.String("cluster-policy", "",
		"cluster-level routing policy (-engine des only; empty = same as -policy)")
	scaleTarget := flag.Float64("scale-target", 0,
		"autoscaler utilization target in (0,1] (-engine des only; 0 = autoscaling off)")
	admitCap := flag.Float64("admit-queue-cap", 0,
		"admission control: max queued requests per active replica (-engine des only; 0 = off)")
	chaosOn := flag.Bool("chaos", false, "inject a seeded fault storm (crashes + fail-slow; see -chaos-* knobs)")
	chaosAt := flag.Float64("chaos-at", 0.3, "storm start as a fraction of the run")
	chaosMTTR := flag.Float64("chaos-mttr", 0.2,
		"crash outage length as a fraction of the run (fail-slow lasts twice this)")
	chaosCrashFrac := flag.Float64("chaos-crash-frac", 0.25, "fraction of replicas the storm crashes")
	chaosSlowFrac := flag.Float64("chaos-slow-frac", 0.125, "fraction of replicas the storm makes fail-slow")
	chaosSlowFactor := flag.Float64("chaos-slow-factor", 10, "fail-slow service-time multiplier")
	resilience := flag.Bool("resilience", false,
		"enable client-side resilience (retry + hedging + circuit breakers + brownout)")
	flag.Parse()

	dopts := desOpts{engine: *engine, traceName: *traceName, replicas: *replicas,
		clusters: *clusters, workers: *workers, clusterPolicy: *clusterPolicy,
		scaleTarget: *scaleTarget, admitCap: *admitCap}
	copts := chaosOpts{on: *chaosOn, at: *chaosAt, mttr: *chaosMTTR, crashFrac: *chaosCrashFrac,
		slowFrac: *chaosSlowFrac, slowFactor: *chaosSlowFactor, resilience: *resilience}
	if err := run(*model, *spec, *policy, *load, *requests, *batch, *batchTimeout,
		*queue, *budget, *seed, *timescale, *faultReplica, *faultRate, *faultAt,
		*repairCap, *repairMiss, *hwConfig, *metricsAddr, *hold, *shards, dopts, copts); err != nil {
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

func run(modelName, specText, policyText string, load float64, requests, batch int,
	batchTimeoutUS float64, queue int, budgetUS float64, seed int64, timescale float64,
	faultReplica string, faultRate, faultAt, repairCap, repairMiss float64, hwConfig string,
	metricsAddr string, hold time.Duration, shards int, dopts desOpts, copts chaosOpts) error {
	if dopts.engine != "goroutine" && dopts.engine != "des" {
		return fmt.Errorf("unknown engine %q (want goroutine or des)", dopts.engine)
	}
	m, err := dnn.ByName(modelName)
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		if err := serveMetrics(metricsAddr); err != nil {
			return err
		}
	}
	cfg, err := hw.LoadConfig(hwConfig)
	if err != nil {
		return err
	}
	policy, err := fleet.ParsePolicy(policyText)
	if err != nil {
		return err
	}
	if load <= 0 {
		return fmt.Errorf("load fraction %v", load)
	}
	if batch < 1 {
		return fmt.Errorf("batch %d", batch)
	}
	specs, err := parseSpec(cfg, m, specText, batch)
	if err != nil {
		return err
	}
	var sr *sim.ShardResult
	if shards > 1 {
		if sr, err = shardDesign(cfg, specs, shards); err != nil {
			return err
		}
	}
	if repairCap > 0 {
		rs := fleet.RepairSpec{Capacity: repairCap, MissRate: repairMiss}
		for i := range specs {
			specs[i].Repair = &rs
		}
		fmt.Printf("self-repair: spares absorb %.2f%% stuck cells, %.0f%% detection miss per sweep\n",
			100*repairCap, 100*repairMiss)
	}
	inject := faultInjection{replica: faultReplica, rate: faultRate, at: faultAt}
	if dopts.engine == "des" {
		return desRun(specs, policy, load, requests, batch, batchTimeoutUS, queue,
			budgetUS, seed, dopts, copts, inject, hold, metricsAddr, sr)
	}

	var aggregate float64
	if sr != nil {
		specs = shardSpecs(specs, sr)
		aggregate = chainCapacityRPS(len(specs), sr)
		fmt.Printf("fleet: %d replicas across %d pipeline stages, chain capacity %.0f req/s; offering %.0f%% = %.0f req/s\n\n",
			len(specs), len(sr.Stages), aggregate, 100*load, load*aggregate)
	} else {
		for _, s := range specs {
			aggregate += 1e9 / s.Pipeline.IntervalNS
		}
		fmt.Printf("fleet: %d replicas, aggregate capacity %.0f req/s; offering %.0f%% = %.0f req/s\n\n",
			len(specs), aggregate, 100*load, load*aggregate)
	}

	fcfg := fleet.DefaultConfig()
	fcfg.Policy = policy
	fcfg.MaxBatch = batch
	fcfg.BatchTimeoutNS = batchTimeoutUS * 1000
	fcfg.QueueDepth = queue
	fcfg.TimeScale = timescale
	fcfg.Seed = seed
	if sr != nil {
		fcfg.Shards = len(sr.Stages)
		fcfg.StageTransferNS = stageTransfers(sr)
	}
	if copts.resilience {
		fcfg.Resilience = chaos.DefaultResilience()
		fmt.Println("resilience: retry + hedging + circuit breakers + brownout enabled")
	}
	w := fleet.Workload{
		ArrivalRate: load * aggregate,
		Requests:    requests,
		Seed:        seed,
		BudgetNS:    budgetUS * 1000,
	}
	spanNS := float64(requests) / w.ArrivalRate * 1e9
	fcfg.Chaos = copts.schedule(inject, replicaNames(specs), spanNS, seed)
	f, err := fleet.New(fcfg, specs...)
	if err != nil {
		return err
	}
	res, err := fleet.Run(f, w)
	snap := f.Snapshot()
	if err != nil {
		return err
	}

	fmt.Printf("\n%v\n\n", res)
	fmt.Printf("%-8s %-7s %-8s %-8s %-8s %-11s %-12s %-12s %s\n",
		"replica", "health", "repairs", "served", "batches", "mean batch", "p50 (µs)", "p99 (µs)", "max (µs)")
	for _, r := range snap.Replicas {
		fmt.Printf("%-8s %-7.2f %-8d %-8d %-8d %-11.2f %-12.1f %-12.1f %.1f\n",
			r.Name, r.Health, r.Repairs, r.Served, r.Batches, r.MeanBatch,
			r.P50NS/1000, r.P99NS/1000, r.MaxNS/1000)
	}
	if hold > 0 && metricsAddr != "" {
		fmt.Printf("\nholding metrics endpoint for %v\n", hold)
		time.Sleep(hold)
	}
	return nil
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

// desRun drives the spec on the discrete-event engine: virtual time, no
// pacing, cluster-scale fleet sizes.
func desRun(specs []fleet.ReplicaSpec, policy fleet.Policy, load float64,
	requests, batch int, batchTimeoutUS float64, queue int, budgetUS float64,
	seed int64, dopts desOpts, copts chaosOpts, inject faultInjection, hold time.Duration, metricsAddr string,
	sr *sim.ShardResult) error {
	specs = tileSpecs(specs, dopts.replicas)
	clusters := dopts.clusters
	if clusters <= 0 {
		clusters = (len(specs) + 99) / 100
	}
	var aggregate float64
	if sr != nil {
		if dopts.clusters > 1 {
			return fmt.Errorf("-shards needs flat routing (-clusters 1)")
		}
		clusters = 1
		specs = shardSpecs(specs, sr)
		aggregate = chainCapacityRPS(len(specs), sr)
		rate := load * aggregate
		fmt.Printf("des fleet: %d replicas across %d pipeline stages, chain capacity %.0f req/s; offering %.0f%% = %.0f req/s (%s arrivals)\n",
			len(specs), len(sr.Stages), aggregate, 100*load, rate, dopts.traceName)
	} else {
		for _, s := range specs {
			aggregate += 1e9 / s.Pipeline.IntervalNS
		}
		fmt.Printf("des fleet: %d replicas in %d clusters, aggregate capacity %.0f req/s; offering %.0f%% = %.0f req/s (%s arrivals)\n",
			len(specs), clusters, aggregate, 100*load, load*aggregate, dopts.traceName)
	}
	rate := load * aggregate

	clusterPolicy := policy
	if dopts.clusterPolicy != "" {
		var err error
		clusterPolicy, err = fleet.ParsePolicy(dopts.clusterPolicy)
		if err != nil {
			return err
		}
	}
	cfg := des.Config{
		Policy:         policy,
		ClusterPolicy:  clusterPolicy,
		Clusters:       clusters,
		MaxBatch:       batch,
		BatchTimeoutNS: batchTimeoutUS * 1000,
		QueueDepth:     queue,
		Seed:           seed,
		Workers:        dopts.workers,
	}
	if sr != nil {
		cfg.Shards = len(sr.Stages)
		cfg.StageTransferNS = stageTransfers(sr)
	}
	if dopts.scaleTarget > 0 {
		cfg.Scaler = des.TargetUtilization{Target: dopts.scaleTarget, Min: 1}
	}
	if dopts.admitCap > 0 {
		cfg.Admit = des.QueueCap{MaxQueuedPerActive: dopts.admitCap}
	}
	if copts.resilience {
		cfg.Resilience = chaos.DefaultResilience()
		fmt.Println("resilience: retry + hedging + circuit breakers + brownout enabled")
	}
	cfg.Chaos = copts.schedule(inject, replicaNames(specs), float64(requests)/rate*1e9, seed)
	f, err := des.NewFleet(cfg, specs...)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = serving.DefaultSeed
	}
	gen, err := trace.Parse(dopts.traceName, rate, seed)
	if err != nil {
		return err
	}
	res, err := f.RunTrace(gen, requests, budgetUS*1000)
	if err != nil {
		return err
	}

	fmt.Printf("\n%v\n", res)
	if dopts.workers > 1 {
		fmt.Printf("parallel lanes: %d of %d workers requested\n", res.Lanes, dopts.workers)
	}
	if res.AdmissionShed > 0 || res.ScaleActions > 0 {
		fmt.Printf("admission shed %d, autoscaler actions %d\n", res.AdmissionShed, res.ScaleActions)
	}
	if res.ChaosEvents > 0 || res.Retried > 0 || res.Hedged > 0 || res.BrownoutShed > 0 {
		fmt.Printf("chaos events %d; retried %d, hedged %d (%d wasted), brownout shed %d, failed %d, unroutable %d\n",
			res.ChaosEvents, res.Retried, res.Hedged, res.HedgeWasted, res.BrownoutShed,
			res.Failed, res.Unroutable)
	}
	// Per-cluster table, elided for very large fleets.
	if len(res.Clusters) <= 64 {
		fmt.Printf("\n%-8s %-9s %-8s %-10s %-11s %s\n", "cluster", "replicas", "active", "served", "adm. shed", "peak queue")
		for _, cl := range res.Clusters {
			fmt.Printf("%-8s %-9d %-8d %-10d %-11d %d\n", cl.Name, cl.Replicas, cl.Active, cl.Served, cl.AdmissionShed, cl.PeakQueued)
		}
	}
	if hold > 0 && metricsAddr != "" {
		fmt.Printf("\nholding metrics endpoint for %v\n", hold)
		time.Sleep(hold)
	}
	return nil
}
