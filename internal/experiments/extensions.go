package experiments

import (
	"fmt"
	"math"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/noc"
	"autohet/internal/report"
	"autohet/internal/search"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Extension experiments — beyond the paper's evaluation, exercising the
// extra capabilities this repo implements (DESIGN.md §5 and the paper's
// §4.5 outlook): per-component energy breakdowns, device-variability
// sensitivity, inter-layer pipelining, and the LLM-domain workload.

// Extensions lists the extension experiment names.
var Extensions = []string{"breakdown", "faults", "repair", "pipeline", "llm", "stability", "programming", "precision", "pruning", "noc", "adc", "fleet", "des", "chaos", "shard"}

// RunExtension generates the named extension experiment.
func (s *Suite) RunExtension(name string) ([]*report.Table, error) {
	switch name {
	case "breakdown":
		t, err := s.Breakdown()
		return wrap(t, err)
	case "faults":
		t, err := s.FaultSensitivity()
		return wrap(t, err)
	case "repair":
		return s.Repair()
	case "pipeline":
		t, err := s.Pipeline()
		return wrap(t, err)
	case "llm":
		t, err := s.LLM()
		return wrap(t, err)
	case "stability":
		t, err := s.Stability()
		return wrap(t, err)
	case "programming":
		t, err := s.Programming()
		return wrap(t, err)
	case "precision":
		t, err := s.PrecisionSweep()
		return wrap(t, err)
	case "pruning":
		t, err := s.Pruning()
		return wrap(t, err)
	case "noc":
		t, err := s.NoC()
		return wrap(t, err)
	case "adc":
		t, err := s.ADCSweep()
		return wrap(t, err)
	case "fleet":
		return s.Fleet()
	case "des":
		return s.Des()
	case "chaos":
		t, err := s.Chaos()
		return wrap(t, err)
	case "shard":
		t, err := s.Shard()
		return wrap(t, err)
	default:
		return nil, fmt.Errorf("experiments: unknown extension %q (have %v)", name, Extensions)
	}
}

// Breakdown reports the per-component energy split of each VGG16
// accelerator — the mechanism behind the paper's energy trends (ADCs
// dominate; small crossbars multiply activated bitlines).
func (s *Suite) Breakdown() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title:  "Extension — energy breakdown by component (VGG16)",
		Note:   "ADC conversions dominate; the 32x32 design activates ~10x the bitlines of 512x512.",
		Header: []string{"Accelerator", "ADC", "DAC", "Cell", "Shift+Add", "Buffer", "Bus", "Pool", "Total (nJ)"},
	}
	add := func(name string, r *sim.Result) {
		b := r.Energy
		tot := b.Total()
		pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v/tot) }
		t.AddRow(name, pct(b.ADC), pct(b.DAC), pct(b.Cell), pct(b.ShiftAdd),
			pct(b.Buffer), pct(b.Bus), pct(b.Pool), report.E(r.EnergyNJ))
	}
	for _, shape := range xbar.SquareCandidates() {
		r, err := s.evaluate(m, accel.Homogeneous(16, shape), false)
		if err != nil {
			return nil, err
		}
		add(shape.String(), r)
	}
	_, r, err := s.variantResult(m, All)
	if err != nil {
		return nil, err
	}
	add("AutoHet", r)
	return t, nil
}

// FaultSensitivity runs functional inference on a small CNN under rising
// stuck-at fault rates and reports the output perturbation — how gracefully
// the mapped computation degrades with device defects.
func (s *Suite) FaultSensitivity() (*report.Table, error) {
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
		Title: "Extension — functional accuracy vs ReRAM device faults (64x64 crossbars)",
		Note: "Relative output error of the crossbar pipeline vs the float reference; " +
			"grows with the stuck-at defect rate, and analog read noise adds on top.",
		Header: []string{"Stuck-at rate", "stuck-at only", "+ read noise (σ=0.5)"},
	}
	input := dnn.SyntheticTensor(1, 8, 8, s.Seed)
	ref, err := dnn.RunReference(m, input, s.Seed)
	if err != nil {
		return nil, err
	}
	p, err := accel.BuildPlan(s.Cfg, m, accel.Homogeneous(3, xbar.Square(64)), true)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(p) // weights quantized once across every fault model
	relErr := func(fm *fault.Model) (float64, error) {
		got, _, err := eng.Run(input, sim.InferenceOptions{Seed: s.Seed, Faults: fm})
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
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		var stuck *fault.Model
		if rate > 0 {
			stuck = &fault.Model{StuckAtZero: rate / 2, StuckAtOne: rate / 2, Seed: s.Seed}
		}
		quiet, err := relErr(stuck)
		if err != nil {
			return nil, err
		}
		noisy, err := relErr(&fault.Model{
			StuckAtZero: rate / 2, StuckAtOne: rate / 2, ReadNoiseSigma: 0.5, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f%%", 100*rate), fmt.Sprintf("%.3f", quiet), fmt.Sprintf("%.3f", noisy))
	}
	return t, nil
}

// Pipeline reports batched, pipelined throughput of each VGG16 accelerator
// (PipeLayer-style inter-layer pipelining, the paper's reference [21]).
func (s *Suite) Pipeline() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title:  "Extension — pipelined batch execution (VGG16, batch 64)",
		Note:   "Throughput is bottleneck-bound; pipelining speedup ≈ fill/interval.",
		Header: []string{"Accelerator", "Interval (ns)", "Bottleneck", "Throughput (inf/s)", "Speedup vs sequential"},
	}
	row := func(name string, r *sim.Result) {
		pr := sim.PipelineFromResult(r, 64)
		t.AddRow(name, report.E(pr.IntervalNS), pr.Bottleneck.Layer.Name,
			report.F(pr.Throughput), fmt.Sprintf("%.2fx", pr.Speedup))
	}
	for _, shape := range xbar.SquareCandidates() {
		r, err := s.evaluate(m, accel.Homogeneous(16, shape), false)
		if err != nil {
			return nil, err
		}
		row(shape.String(), r)
	}
	_, r, err := s.variantResult(m, All)
	if err != nil {
		return nil, err
	}
	row("AutoHet", r)
	return t, nil
}

// Stability quantifies the RL search's seed sensitivity: best RUE across
// independent seeds on VGG16, relative to the best homogeneous accelerator.
// The search's best-so-far starts at the best homogeneous strategy, so it
// never falls below 1.00x; the spread above it shows how reliably
// exploration finds the heterogeneous optimum.
func (s *Suite) Stability() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title:  "Extension — RL search stability across seeds (VGG16)",
		Note:   "Gain over the best homogeneous candidate; never below 1.00x by construction.",
		Header: []string{"Seed", "Best RUE", "Gain vs Best-Homo"},
	}
	minGain, maxGain, sumGain := math.Inf(1), 0.0, 0.0
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		sub := NewSuite(s.Rounds, seed)
		res, err := sub.runSearch(m, xbar.DefaultCandidates(), true, "stability")
		if err != nil {
			return nil, err
		}
		gain := res.BestResult.RUE() / res.RefRUE
		sumGain += gain
		if gain < minGain {
			minGain = gain
		}
		if gain > maxGain {
			maxGain = gain
		}
		t.AddRow(fmt.Sprintf("%d", seed), report.E(res.BestResult.RUE()), fmt.Sprintf("%.3fx", gain))
	}
	t.AddRow("min/mean/max", "",
		fmt.Sprintf("%.3fx / %.3fx / %.3fx", minGain, sumGain/float64(len(seeds)), maxGain))
	return t, nil
}

// Programming reports the one-time weight-write cost of each accelerator
// and the inference count at which it amortizes below 1% of total energy.
func (s *Suite) Programming() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title:  "Extension — weight-programming cost (VGG16)",
		Note:   "One-time ReRAM write cost; break-even is inferences until programming is <1% of lifetime energy.",
		Header: []string{"Accelerator", "Programmed cells", "Write energy (nJ)", "Write time (ns)", "Break-even (inferences)"},
	}
	add := func(name string, p *accel.Plan, perInf float64) error {
		pc, err := sim.SimulateProgramming(p)
		if err != nil {
			return err
		}
		t.AddRow(name, fmt.Sprintf("%d", pc.Cells), report.E(pc.EnergyNJ), report.E(pc.LatencyNS),
			fmt.Sprintf("%d", pc.BreakEvenInferences(perInf, 0.01)))
		return nil
	}
	for _, shape := range []xbar.Shape{xbar.Square(64), xbar.Square(512)} {
		r, err := s.evaluatePlan(m, accel.Homogeneous(16, shape), false)
		if err != nil {
			return nil, err
		}
		if err := add(shape.String(), r.Plan, r.EnergyNJ); err != nil {
			return nil, err
		}
	}
	_, r, err := s.variantResult(m, All)
	if err != nil {
		return nil, err
	}
	if err := add("AutoHet", r.Plan, r.EnergyNJ); err != nil {
		return nil, err
	}
	return t, nil
}

// PrecisionSweep contrasts uniform weight precisions with the joint
// shape×bits annealing search (HAQ-style mixed precision, related to the
// paper's §5 AutoML-quantization citations). The probe column measures the
// *functional* output error of a small CNN at that uniform precision.
func (s *Suite) PrecisionSweep() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Extension — weight precision: uniform vs searched mixed (VGG16)",
		Note: "Fewer bit planes cut conversions ~linearly; the mixed search keeps a " +
			"weighted-mean-6-bit budget while maximizing RUE.",
		Header: []string{"Precision", "Mean bits", "Energy (nJ)", "RUE", "Probe rel. error"},
	}
	env, err := search.NewEnv(s.Cfg, m, xbar.DefaultCandidates(), true)
	if err != nil {
		return nil, err
	}
	// Uniform rows use the best homogeneous shape over the candidates.
	_, bestShape, err := search.BestHomogeneous(env, env.Candidates)
	if err != nil {
		return nil, err
	}
	for _, bits := range []int{8, 6, 4} {
		prec := make(accel.Precision, m.NumMappable())
		indices := make([]int, m.NumMappable())
		for i := range prec {
			prec[i] = bits
			indices[i] = bestShape
		}
		r, err := env.Evaluator().EvalSpec(indices, prec)
		if err != nil {
			return nil, err
		}
		probe, err := probeError(s.Cfg, bits, s.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("uniform %d-bit", bits), fmt.Sprintf("%d.0", bits),
			report.E(r.EnergyNJ), report.E(r.RUE()), fmt.Sprintf("%.3f", probe))
	}
	opts := search.DefaultMPOptions()
	opts.Rounds = s.Rounds
	opts.Seed = s.Seed
	res, err := search.MixedPrecision(env, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("searched mixed", fmt.Sprintf("%.1f", res.MeanBits),
		report.E(res.Result.EnergyNJ), report.E(res.Result.RUE()), "-")
	return t, nil
}

// Pruning contrasts uniform structured channel pruning with the joint
// shape×keep annealing search (AUTO-PRUNE-style, paper ref [27]) on
// AlexNet (a chain-structured model).
func (s *Suite) Pruning() (*report.Table, error) {
	m := dnn.AlexNet()
	t := &report.Table{
		Title: "Extension — structured channel pruning (AlexNet)",
		Note: "Pruned channels remove whole crossbar columns; the searched row keeps " +
			"≥70% of the weights while maximizing RUE.",
		Header: []string{"Pruning", "Kept weights", "Energy (nJ)", "RUE", "Tiles"},
	}
	cands := xbar.DefaultCandidates()
	for _, keepRatio := range []float64{1.0, 0.75, 0.5} {
		keep := make([]float64, m.NumMappable())
		for i := range keep {
			keep[i] = keepRatio
		}
		keep[len(keep)-1] = 1
		pruned, err := dnn.PruneChannels(m, keep)
		if err != nil {
			return nil, err
		}
		env, err := search.NewEnv(s.Cfg, pruned, cands, true)
		if err != nil {
			return nil, err
		}
		evals, best, err := search.BestHomogeneous(env, cands)
		if err != nil {
			return nil, err
		}
		r := evals[best].Result
		kept := float64(pruned.TotalWeights()) / float64(m.TotalWeights())
		t.AddRow(fmt.Sprintf("uniform keep %.0f%%", 100*keepRatio),
			fmt.Sprintf("%.0f%%", 100*kept), report.E(r.EnergyNJ), report.E(r.RUE()),
			report.I(r.OccupiedTiles))
	}
	opts := search.DefaultPruneOptions()
	opts.Rounds = s.Rounds
	opts.Seed = s.Seed
	res, err := search.PruneSearch(s.Cfg, m, cands, true, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("searched (≥70% kept)", fmt.Sprintf("%.0f%%", 100*res.KeptWeights),
		report.E(res.Result.EnergyNJ), report.E(res.Result.RUE()),
		report.I(res.Result.OccupiedTiles))
	return t, nil
}

// NoC re-prices inter-tile traffic on a 2-D mesh with XY routing instead of
// the flat bus constant, showing that the tile-shared scheme also reduces
// placement-dependent interconnect cost.
func (s *Suite) NoC() (*report.Table, error) {
	m := dnn.VGG16()
	// Size the mesh from the configured bank capacity rather than hardcoding
	// the default bank's 256 width, so non-default TilesPerBank configs get a
	// mesh that actually covers every placed tile.
	mesh, err := noc.NewMeshFor(s.Cfg.TilesPerBank)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Extension — mesh NoC vs flat bus interconnect accounting (VGG16)",
		Note: "Per MVM each replicated copy scatters its input patch from the root tile and " +
			"gathers partial outputs back, both priced on the copy's own tile subset; small " +
			"crossbars spread layers over many tiles and pay the most. Tile sharing never increases it.",
		Header: []string{"Accelerator", "Tiles", "Bus flat (nJ)", "Bus mesh (nJ)", "Mesh/flat", "Latency mesh (ns)"},
	}
	for _, shape := range []xbar.Shape{xbar.Square(64), xbar.Square(256), xbar.Rect(576, 512)} {
		st := accel.Homogeneous(16, shape)
		p, err := accel.BuildPlan(s.Cfg, m, st, true)
		if err != nil {
			return nil, err
		}
		flat, err := s.evaluate(m, st, true)
		if err != nil {
			return nil, err
		}
		meshed, err := sim.SimulateNoC(p, mesh)
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if flat.Energy.Bus > 0 {
			ratio = fmt.Sprintf("%.1fx", meshed.Energy.Bus/flat.Energy.Bus)
		}
		t.AddRow(shape.String(), report.I(meshed.OccupiedTiles),
			report.E(flat.Energy.Bus/1000), report.E(meshed.Energy.Bus/1000),
			ratio, report.E(meshed.LatencyNS))
	}
	return t, nil
}

// ADCSweep varies the ADC resolution (the dominant energy term scales
// 2^bits) and reports Best-Homo vs AutoHet RUE at each — a hardware knob
// the paper fixes at 10 bits (§4.1).
func (s *Suite) ADCSweep() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Extension — RUE vs ADC resolution (VGG16)",
		Note: "ADC energy scales 2^bits, so RUE rises as resolution drops; AutoHet's " +
			"advantage holds at every resolution.",
		Header: []string{"ADC bits", "Best-Homo RUE", "AutoHet RUE", "Gain"},
	}
	for _, bits := range []int{8, 10, 12} {
		sub := NewSuite(s.Rounds, s.Seed)
		sub.Cfg.ADCBits = bits
		auto, homo, err := sub.autoHetVsBestHomo(m, xbar.DefaultCandidates(), fmt.Sprintf("adc-%d", bits))
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(bits), report.E(homo), report.E(auto), fmt.Sprintf("%.2fx", auto/homo))
	}
	return t, nil
}

// probeError measures the functional output error of a small CNN at a
// uniform weight precision against the float reference.
func probeError(cfg hw.Config, bits int, seed int64) (float64, error) {
	m, err := dnn.NewModel("probe-cnn", 8, 8, 1, []*dnn.Layer{
		{Name: "c1", Kind: dnn.Conv, K: 3, InC: 1, OutC: 8, Stride: 1, Pad: 1},
		{Name: "p1", Kind: dnn.Pool, K: 2, Stride: 2},
		{Name: "c2", Kind: dnn.Conv, K: 3, InC: 8, OutC: 16, Stride: 1, Pad: 1},
		{Name: "p2", Kind: dnn.Pool, K: 4, Stride: 4},
		{Name: "f1", Kind: dnn.FC, K: 1, InC: 16, OutC: 10, Stride: 1},
	})
	if err != nil {
		return 0, err
	}
	prec := make(accel.Precision, m.NumMappable())
	for i := range prec {
		prec[i] = bits
	}
	p, err := accel.Build(cfg, m, accel.PlanSpec{
		Strategy:  accel.Homogeneous(m.NumMappable(), xbar.Square(64)),
		Precision: prec,
		Shared:    true,
	})
	if err != nil {
		return 0, err
	}
	input := dnn.SyntheticTensor(1, 8, 8, seed)
	ref, err := dnn.RunReference(m, input, seed)
	if err != nil {
		return 0, err
	}
	got, _, err := sim.RunInference(p, input, sim.InferenceOptions{Seed: seed})
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

// LLM maps the §4.5 outlook onto a concrete workload: the AutoHet search on
// a BERT-Base-shaped encoder versus its homogeneous baselines.
func (s *Suite) LLM() (*report.Table, error) {
	m := dnn.BERTBase()
	cands := []xbar.Shape{
		xbar.Square(128), xbar.Square(256), xbar.Square(512),
		xbar.Rect(288, 256), xbar.Rect(576, 512),
	}
	t := &report.Table{
		Title:  "Extension — §4.5 LLM domain: BERT-Base encoder (85M mapped weights)",
		Note:   "AutoHet ≥ the best homogeneous candidate; k=1 projections favor power-of-two heights.",
		Header: []string{"Accelerator", "Utilization", "Energy (nJ)", "RUE"},
	}
	for _, shape := range cands {
		r, err := s.evaluate(m, accel.Homogeneous(m.NumMappable(), shape), false)
		if err != nil {
			return nil, err
		}
		t.AddRow(shape.String(), report.Pct(r.Utilization), report.E(r.EnergyNJ), report.E(r.RUE()))
	}
	res, err := s.runSearch(m, cands, true, "llm")
	if err != nil {
		return nil, err
	}
	r := res.BestResult
	t.AddRow("AutoHet", report.Pct(r.Utilization), report.E(r.EnergyNJ), report.E(r.RUE()))
	return t, nil
}
