package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/obs"
	"autohet/internal/quant"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// MVMKernelLeg records the packed-vs-scalar kernel comparison on the paper's
// Fig. 5 layer (3×3×12 → 128 on a 2×2 grid of 64×64 crossbars): one input
// through ExecuteMVM — the batched popcount kernels on a one-member batch —
// against the byte-per-cell ExecuteMVMScalar.
type MVMKernelLeg struct {
	ScalarNsPerMVM float64 `json:"scalar_ns_per_mvm"`
	PackedNsPerMVM float64 `json:"packed_ns_per_mvm"`
	Speedup        float64 `json:"speedup"`
	// BitExact confirms the two kernels produced `==`-identical outputs and
	// stats on this layer before timing.
	BitExact bool `json:"bit_exact"`
}

// MVMKernelBatchLeg records the engine's fast serving pipeline at one kernel
// batch size on the same Fig. 5 layer. The B=1 leg times the unbatched
// per-patch pipeline (per-patch quantization + single-vector integer kernel —
// the serving path before kernel batching); batched legs time the engine's
// batch pipeline (one-pass codes-only batch quantization + the AVX2 blocked
// kernel, or the scalar batch kernel without AVX2). speedup_vs_b1 therefore
// reads as the per-patch amortization a formed batch of B buys over
// one-at-a-time processing.
type MVMKernelBatchLeg struct {
	Batch      int     `json:"batch"`
	NsPerMVM   float64 `json:"ns_per_mvm"`
	MVMsPerSec float64 `json:"mvms_per_sec"`
	// SpeedupVsB1 is ns/MVM at B=1 divided by ns/MVM at this batch size.
	SpeedupVsB1 float64 `json:"speedup_vs_b1"`
	// BitExact confirms every batch member, on both fast pipelines, matched
	// the bit-serial crossbar pipeline `==`-exactly before timing.
	BitExact bool `json:"bit_exact"`
}

// MVMServeLeg records end-to-end inference throughput on the serving path
// (Engine.RunBatch, fast integer kernels) at one batch size, from Runs
// warm RunBatch calls timed one by one: the per-inference figures are the
// median call's, IQRRel is the calls' interquartile range over their
// median, and AllocBytesPerInf the bytes the calls allocated
// (runtime.MemStats.TotalAlloc) per inference.
type MVMServeLeg struct {
	Batch             int     `json:"batch"`
	Runs              int     `json:"runs"`
	WallSecondsPerInf float64 `json:"wall_seconds_per_inference"`
	InferencesPerSec  float64 `json:"inferences_per_sec"`
	IQRRel            float64 `json:"iqr_over_median"`
	AllocBytesPerInf  float64 `json:"alloc_bytes_per_inference"`
}

// MVMEndToEndLeg records whole-network inference throughput. The headline
// wall_seconds_per_inference / inferences_per_sec measure the serving path
// (fast integer kernels, batch 1) — the path a deployed engine runs per
// request. The bit_exact_* fields time the per-crossbar bit-serial pipeline
// that earlier benchmark revisions reported as the headline; it is kept so
// the trajectory across revisions stays comparable. serve_batch sweeps the
// serving path over batch sizes.
type MVMEndToEndLeg struct {
	Model             string  `json:"model"`
	MVMsPerInference  int64   `json:"mvms_per_inference"`
	WallSecondsPerInf float64 `json:"wall_seconds_per_inference"`
	InferencesPerSec  float64 `json:"inferences_per_sec"`
	// AllocsPerPatch is heap allocations per sliding-window MVM on the warm
	// serving path; batch quantization and persistent scratch hold it at ~0.
	AllocsPerPatch     float64       `json:"allocs_per_patch"`
	BitExactSecsPerInf float64       `json:"bit_exact_seconds_per_inference"`
	BitExactInfPerSec  float64       `json:"bit_exact_inferences_per_sec"`
	ScalarEstimateSecs float64       `json:"scalar_estimate_seconds_per_inference"`
	EstimatedSpeedup   float64       `json:"estimated_speedup"`
	ServeBatch         []MVMServeLeg `json:"serve_batch"`
	// BitExactMatchesFast confirms the fast serving path reproduced the
	// bit-exact pipeline's outputs `==`-identically before timing.
	BitExactMatchesFast bool `json:"bit_exact_matches_fast"`
}

// MVMBench is the JSON document cmd/experiments -bench mvm writes: the packed
// popcount engine measured against the byte-per-cell scalar reference it
// replaced, at kernel granularity (single-vector and batched) and end to end.
type MVMBench struct {
	Machine     Machine             `json:"machine"`
	Workers     int                 `json:"workers"`
	Seed        int64               `json:"seed"`
	Kernel      MVMKernelLeg        `json:"kernel"`
	KernelBatch []MVMKernelBatchLeg `json:"kernel_batch"`
	EndToEnd    MVMEndToEndLeg      `json:"end_to_end"`
}

// KernelBatchLeg returns the kernel-batch leg for batch size b, or nil.
func (b *MVMBench) KernelBatchLeg(batch int) *MVMKernelBatchLeg {
	for i := range b.KernelBatch {
		if b.KernelBatch[i].Batch == batch {
			return &b.KernelBatch[i]
		}
	}
	return nil
}

// BenchMVM measures the packed MVM engine: the Fig. 5 kernel comparison, the
// batched-kernel amortization sweep, and an AlexNet-scale end-to-end leg.
func BenchMVM(seed int64) (*MVMBench, error) {
	return benchMVMModel(dnn.AlexNet(), seed, 200)
}

func benchMVMModel(m *dnn.Model, seed int64, kernelReps int) (*MVMBench, error) {
	b := &MVMBench{Machine: HostMachine(), Workers: runtime.GOMAXPROCS(0), Seed: seed}
	var err error
	if b.Kernel, err = benchMVMKernel(seed, kernelReps); err != nil {
		return nil, err
	}
	if b.KernelBatch, err = benchMVMKernelBatch(seed, kernelReps); err != nil {
		return nil, err
	}
	if b.EndToEnd, err = benchMVMEndToEnd(m, seed); err != nil {
		return nil, err
	}
	return b, nil
}

// fig5Layer builds the Fig. 5 kernel-benchmark layer and its crossbar plan.
func fig5Layer(cfg hw.Config) (*accel.LayerAlloc, error) {
	l := &dnn.Layer{Name: "fig5", Kind: dnn.Conv, K: 3, InC: 12, OutC: 128, Stride: 1, Pad: 0, InH: 8, InW: 8}
	m, err := dnn.NewFlatModel("fig5", 8, 8, 12, []*dnn.Layer{l})
	if err != nil {
		return nil, err
	}
	p, err := accel.BuildPlan(cfg, m, accel.Homogeneous(1, xbar.Square(64)), false)
	if err != nil {
		return nil, err
	}
	return p.Layers[0], nil
}

// benchMVMKernel times ExecuteMVM against ExecuteMVMScalar on the Fig. 5
// layer, asserting bit-exact agreement first.
func benchMVMKernel(seed int64, reps int) (MVMKernelLeg, error) {
	cfg := hw.DefaultConfig()
	la, err := fig5Layer(cfg)
	if err != nil {
		return MVMKernelLeg{}, err
	}
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, seed+1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, seed+2))

	packed, ps, err := sim.ExecuteMVM(cfg, la, w, in)
	if err != nil {
		return MVMKernelLeg{}, err
	}
	scalar, ss, err := sim.ExecuteMVMScalar(cfg, la, w, in)
	if err != nil {
		return MVMKernelLeg{}, err
	}
	leg := MVMKernelLeg{BitExact: ps == ss}
	for j := range packed {
		if packed[j] != scalar[j] {
			leg.BitExact = false
		}
	}
	if !leg.BitExact {
		return leg, fmt.Errorf("experiments: packed and scalar kernels disagree on the Fig. 5 layer")
	}

	leg.PackedNsPerMVM = timePerOp(reps, func() error {
		_, _, err := sim.ExecuteMVM(cfg, la, w, in)
		return err
	})
	// The scalar kernel is orders of magnitude slower; a handful of reps is
	// enough resolution.
	scalarReps := reps/50 + 1
	leg.ScalarNsPerMVM = timePerOp(scalarReps, func() error {
		_, _, err := sim.ExecuteMVMScalar(cfg, la, w, in)
		return err
	})
	if leg.PackedNsPerMVM > 0 {
		leg.Speedup = leg.ScalarNsPerMVM / leg.PackedNsPerMVM
	}
	return leg, nil
}

// benchMVMKernelBatch sweeps the fast serving pipeline over kernel batch
// sizes on the Fig. 5 layer via sim.FastKernels. Each leg first verifies
// both fast pipelines against the bit-serial crossbar pipeline (ExecuteMVM
// per member, which the kernel leg pins to ExecuteMVMScalar), then
// times the warm pipeline: B=1 is the unbatched per-patch path, B>1 the
// batch-quantize + batched-kernel path, patch extraction outside the timed
// loop in both cases.
func benchMVMKernelBatch(seed int64, reps int) ([]MVMKernelBatchLeg, error) {
	cfg := hw.DefaultConfig()
	la, err := fig5Layer(cfg)
	if err != nil {
		return nil, err
	}
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, seed+1))
	fk := sim.NewFastKernels(w)
	n := w.Rows

	legs := make([]MVMKernelBatchLeg, 0, 4)
	for _, B := range []int{1, 8, 32, 128} {
		xs := make([][]float64, B)
		flat := make([]float64, B*n)
		ins := make([]*quant.Input, B)
		for k := range xs {
			xs[k] = dnn.SyntheticInput(la.Layer, seed+2+int64(k))
			copy(flat[k*n:(k+1)*n], xs[k])
			ins[k] = quant.QuantizeInput(xs[k])
		}
		leg := MVMKernelBatchLeg{Batch: B, BitExact: true}
		got := fk.Batch(flat, n, B)
		batched := make([]float64, len(got))
		copy(batched, got)
		for k, in := range ins {
			ref, _, err := sim.ExecuteMVM(cfg, la, w, in)
			if err != nil {
				return nil, err
			}
			single := fk.Single(xs[k])
			for j := range ref {
				want := w.ScaleFor(j) * in.Scale * ref[j]
				if batched[k*w.Cols+j] != want || single[j] != want {
					leg.BitExact = false
				}
			}
		}
		if !leg.BitExact {
			return nil, fmt.Errorf("experiments: fast kernel pipelines diverged from the bit-serial reference at B=%d", B)
		}
		if B == 1 {
			leg.NsPerMVM = timePerOp(reps+3, func() error {
				fk.Single(xs[0])
				return nil
			})
		} else {
			nsPerBatch := timePerOp(reps/B+3, func() error {
				fk.Batch(flat, n, B)
				return nil
			})
			leg.NsPerMVM = nsPerBatch / float64(B)
		}
		if leg.NsPerMVM > 0 {
			leg.MVMsPerSec = 1e9 / leg.NsPerMVM
		}
		legs = append(legs, leg)
	}
	base := legs[0].NsPerMVM
	for i := range legs {
		if legs[i].NsPerMVM > 0 {
			legs[i].SpeedupVsB1 = base / legs[i].NsPerMVM
		}
	}
	return legs, nil
}

// benchMVMEndToEnd runs whole-network inference through a warm Engine. It
// verifies fast == bit-exact outputs, times the bit-exact pipeline (the
// historical headline), then sweeps the serving path over batch sizes,
// timing each RunBatch call on its own and counting allocated bytes per
// inference, and allocations per sliding-window MVM on the batch-1 leg. The scalar
// engine's cost is estimated per layer and scaled by patch counts — running
// it outright takes minutes.
func benchMVMEndToEnd(m *dnn.Model, seed int64) (MVMEndToEndLeg, error) {
	cfg := hw.DefaultConfig()
	p, err := accel.BuildPlan(cfg, m, accel.Homogeneous(m.NumMappable(), xbar.Square(128)), true)
	if err != nil {
		return MVMEndToEndLeg{}, err
	}
	leg := MVMEndToEndLeg{Model: m.Name}
	input := dnn.SyntheticTensor(m.InC, m.InH, m.InW, seed+3)
	eng := sim.NewEngine(p)
	exactOpts := sim.InferenceOptions{Seed: seed, BitExact: true}
	fastOpts := sim.InferenceOptions{Seed: seed}
	ref, stats, err := eng.Run(input, exactOpts) // warm the caches
	if err != nil {
		return leg, err
	}
	leg.MVMsPerInference = stats.MVMs
	fast, _, err := eng.Run(input, fastOpts)
	if err != nil {
		return leg, err
	}
	leg.BitExactMatchesFast = len(fast) == len(ref)
	for j := range ref {
		if fast[j] != ref[j] {
			leg.BitExactMatchesFast = false
		}
	}
	if !leg.BitExactMatchesFast {
		return leg, fmt.Errorf("experiments: bit-exact and fast inference paths diverged on %s", m.Name)
	}

	const exactRuns = 3
	start := time.Now()
	for r := 0; r < exactRuns; r++ {
		if _, _, err := eng.Run(input, exactOpts); err != nil {
			return leg, err
		}
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		leg.BitExactSecsPerInf = wall / exactRuns
		leg.BitExactInfPerSec = exactRuns / wall
	}

	for _, B := range []int{1, 8, 32} {
		inputs := make([]*dnn.Tensor, B)
		for k := range inputs {
			inputs[k] = dnn.SyntheticTensor(m.InC, m.InH, m.InW, seed+3+int64(k))
		}
		if _, _, err := eng.RunBatch(inputs, fastOpts); err != nil { // warm
			return leg, err
		}
		const runs = 7
		calls := make([]float64, runs)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for r := range calls {
			start := time.Now()
			if _, _, err := eng.RunBatch(inputs, fastOpts); err != nil {
				return leg, err
			}
			calls[r] = time.Since(start).Seconds()
		}
		runtime.ReadMemStats(&ms1)
		sort.Float64s(calls)
		med := obs.Percentile(calls, 0.5)
		sl := MVMServeLeg{Batch: B, Runs: runs, WallSecondsPerInf: med / float64(B),
			AllocBytesPerInf: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(runs*B)}
		if med > 0 {
			sl.InferencesPerSec = float64(B) / med
			sl.IQRRel = (obs.Percentile(calls, 0.75) - obs.Percentile(calls, 0.25)) / med
		}
		leg.ServeBatch = append(leg.ServeBatch, sl)
		if B == 1 {
			leg.WallSecondsPerInf = sl.WallSecondsPerInf
			leg.InferencesPerSec = sl.InferencesPerSec
			if stats.MVMs > 0 {
				leg.AllocsPerPatch = float64(ms1.Mallocs-ms0.Mallocs) / float64(runs*stats.MVMs)
			}
		}
	}

	// Scalar estimate: one scalar MVM per mappable layer, scaled by the
	// layer's sliding-window position count.
	for _, l := range m.Mappable() {
		la := p.Layers[l.Index]
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, seed))
		in := quant.QuantizeInput(dnn.SyntheticInput(l, seed+4))
		ns := timePerOp(1, func() error {
			_, _, err := sim.ExecuteMVMScalar(cfg, la, w, in)
			return err
		})
		leg.ScalarEstimateSecs += ns * 1e-9 * float64(l.OutputPositions())
	}
	if leg.WallSecondsPerInf > 0 {
		leg.EstimatedSpeedup = leg.ScalarEstimateSecs / leg.WallSecondsPerInf
	}
	return leg, nil
}

// timePerOp returns the mean ns per call of fn over reps calls.
func timePerOp(reps int, fn func() error) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// WriteJSON writes the benchmark document to path (indented, trailing
// newline) so CI and EXPERIMENTS.md recipes can archive it.
func (b *MVMBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
