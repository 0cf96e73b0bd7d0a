package main

import (
	"fmt"
	"runtime"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/mat"
	"autohet/internal/quant"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// runInfer drives functional inference: VGG16 on a homogeneous 128×128
// tile-shared plan through a warm sim.Engine on the fast integer path. The
// first half of the run is one closed-loop client issuing batch-1 calls
// (latency); the second half is offline RunBatch calls of 32 inputs
// (throughput).
func runInfer(b *bench) {
	cfg, m := hw.DefaultConfig(), dnn.VGG16()
	opts := sim.InferenceOptions{Seed: b.seed}
	batchSize, setupReps, b1Min := 32, 5, 1
	if b.tiny {
		batchSize, setupReps, b1Min = 4, 1, 2
	}
	tensor := func(k int64) *dnn.Tensor { return dnn.SyntheticTensor(m.InC, m.InH, m.InW, b.seed*10_000+k) }
	singles := make([]*dnn.Tensor, 16)
	for k := range singles {
		singles[k] = tensor(int64(k))
	}
	batch := make([]*dnn.Tensor, batchSize)
	for k := range batch {
		batch[k] = tensor(int64(1000 + k))
	}

	// Set-up builds the plan and the engine, and pays the first RunBatch,
	// which fills the engine's weight and kernel-pack caches.
	var (
		setups []float64
		plan   *accel.Plan
		eng    *sim.Engine
	)
	for r := 0; r < setupReps; r++ {
		runtime.GC() // every repetition starts on the same clean heap
		start := time.Now()
		p, err := accel.BuildPlan(cfg, m, accel.Homogeneous(m.NumMappable(), xbar.Square(128)), true)
		if err != nil {
			b.op(fmt.Errorf("infer set-up: %w", err))
			return
		}
		e := sim.NewEngine(p)
		_, _, err = e.RunBatch(singles[:1], opts)
		b.op(err)
		if err != nil {
			return
		}
		setups = append(setups, time.Since(start).Seconds())
		plan, eng = p, e
	}

	// Phase 1: batch-1 latency, one client, closed loop.
	var (
		callMS   []float64
		firstOut []float64
		b1Stats  sim.InferenceStats
		ms0      runtime.MemStats
	)
	if b.traced {
		runtime.ReadMemStats(&ms0)
	}
	phase := b.spans.begin("infer.phase.b1", 0)
	end := b.deadline(0.5)
	for i := 0; i < b1Min || (!b.tiny && time.Now().Before(end)); i++ {
		in := singles[i%len(singles)]
		id := b.spans.begin("sim.Engine.RunBatch", phase)
		start := time.Now()
		outs, st, err := eng.RunBatch([]*dnn.Tensor{in}, opts)
		d := time.Since(start)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return
		}
		callMS = append(callMS, ms(d))
		b1Stats.MVMs += st.MVMs
		b1Stats.KernelBatches += st.KernelBatches
		if i == 0 {
			firstOut = outs[0]
			b.model["model.mvms_per_inf"] = float64(st.MVMs)
			b.model["model.adc_conversions_per_inf"] = float64(st.ADCConversions)
			b.model["model.b1_output_sum"] = sum(outs[0])
		}
	}
	b.spans.end(phase)
	var ms1 runtime.MemStats
	if b.traced {
		runtime.ReadMemStats(&ms1)
	}
	b.check(checkBitExact(eng, singles[0], firstOut, b.seed))

	// Phase 2: offline throughput at batch 32. The first batch warms the
	// engine's batch-sized scratch and is not timed.
	phase = b.spans.begin("infer.phase.b32", 0)
	outs, st, err := eng.RunBatch(batch, opts)
	b.op(err)
	if err != nil {
		return
	}
	b.check(checkBitExact(eng, batch[0], outs[0], b.seed))
	b.model["model.batch_output_sum"] = sum(outs[0])
	batchMeanKB := float64(st.MVMs) / float64(st.KernelBatches)
	var perSec []float64
	end = b.deadline(0.5)
	for i := 0; i == 0 || (!b.tiny && time.Now().Before(end)); i++ {
		id := b.spans.begin("sim.Engine.RunBatch", phase)
		start := time.Now()
		_, _, err := eng.RunBatch(batch, opts)
		d := time.Since(start)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return
		}
		perSec = append(perSec, float64(batchSize)/d.Seconds())
	}
	b.spans.end(phase)

	b.samples["setup_s"], b.samples["throughput_per_s"], b.samples["call_ms"] = setups, perSec, callMS
	if !b.traced {
		b.setE2E("setup_s", "s", median(setups))
		b.setE2E("throughput_per_s", "1/s", median(perSec))
		b.setE2E("call_p50_ms", "ms", quantile(callMS, 0.5))
		return
	}
	b.setLayer("traced.throughput_per_s", "1/s", median(perSec))
	b.setLayer("traced.call_p90_ms", "ms", quantile(callMS, 0.9))
	mvmsPerInf := float64(b1Stats.MVMs) / float64(len(callMS))
	b.setLayer("infer.mvms_per_inf", "count", mvmsPerInf)
	b.setLayer("infer.mean_kernel_batch", "count", float64(b1Stats.MVMs)/float64(b1Stats.KernelBatches))
	b.setLayer("infer.b32.mean_kernel_batch", "count", batchMeanKB)
	b.setLayer("infer.allocs_per_mvm", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(b1Stats.MVMs))
	profileInferLayers(b, plan, singles[0], median(callMS))
}

// checkBitExact reruns in through the full bit-sliced, bit-serial crossbar
// pipeline and demands the fast path's outputs exactly.
func checkBitExact(eng *sim.Engine, in *dnn.Tensor, fast []float64, seed int64) error {
	exact, _, err := eng.Run(in, sim.InferenceOptions{Seed: seed, BitExact: true})
	if err != nil {
		return fmt.Errorf("infer check: bit-exact run: %w", err)
	}
	if len(exact) != len(fast) {
		return fmt.Errorf("infer check: %d fast outputs, %d bit-exact", len(fast), len(exact))
	}
	for j := range exact {
		if exact[j] != fast[j] {
			return fmt.Errorf("infer check: output %d: fast %v, bit-exact %v", j, fast[j], exact[j])
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerCost is one mappable layer's share of a batch-1 inference, replayed
// on one goroutine.
type layerCost struct {
	patch, quant, batch time.Duration // per inference
	workers             int           // goroutines the engine gives the layer
}

// profileInferLayers replays one batch-1 inference layer by layer from the
// benchmark: dnn.Tensor.PatchInto extracts each kernel batch of patches,
// quant.QuantizeBatchFlatCodesInto quantizes it, and sim.FastKernels.Batch
// runs the engine's batched fast pipeline (quantize + kernel + dequantize)
// on the layer's own weights. Layer inputs are the float reference
// activations of the same input, so value-dependent costs are realistic.
//
// Kernel batches and fan-out follow the engine's chunking rules (see
// sim.Engine.streamPatchBatches and runChunks): a conv layer of n patches
// uses batches of min(32, n/NumCPU) and spreads them over min(NumCPU,
// chunks) workers once it has at least 64 patches; an FC layer at batch 1
// runs one member on one goroutine. The replay is single-threaded, so each
// layer's time is divided by its worker count before it is subtracted
// from the measured call: infer.other_ms is RunBatch's median batch-1
// latency minus that critical-path estimate, and holds pooling, ReLU,
// tensor allocation, scheduling and any imperfect parallel speed-up.
func profileInferLayers(b *bench, plan *accel.Plan, input *dnn.Tensor, callMS float64) {
	m := plan.Model
	reps := 5
	if b.tiny {
		reps = 1
	}
	ncpu := runtime.NumCPU()
	var (
		cur        = input
		flatIn     []float64
		patchT     time.Duration
		quantT     time.Duration
		batchT     time.Duration
		critical   time.Duration
		pb         *quant.PackedBatch
		parentSpan = b.spans.begin("infer.layers", 0)
	)
	last := m.Mappable()[m.NumMappable()-1]
	for _, l := range m.Layers {
		if l.Kind == dnn.Pool {
			cur = dnn.PoolMaxRef(l, cur)
			continue
		}
		raw := dnn.SyntheticWeights(l, b.seed)
		w := quantizedWeights(plan, l, raw)
		id := b.spans.begin("infer.layer."+l.Name, parentSpan)
		var c layerCost
		patches := 1
		if l.Kind == dnn.Conv {
			patches = l.OutputPositions()
			c = replayConv(l, cur, w, reps, ncpu, &pb)
			b.spans.end(id)
			cur = dnn.ConvRef(l, cur, raw)
			if l != last {
				dnn.ReLU(cur.Data)
			}
		} else {
			if flatIn == nil {
				flatIn = cur.Flatten()
			}
			c = replayFC(flatIn, w, reps, &pb)
			b.spans.end(id)
			flatIn = dnn.FCRef(l, flatIn, raw)
			if l != last {
				dnn.ReLU(flatIn)
			}
		}
		macs := float64(w.Rows * w.Cols * patches)
		b.setLayer("infer."+l.Name+".kernel_ms", "ms", ms(c.batch))
		b.setLayer("infer."+l.Name+".gmacs", "GMAC/s", macs/float64(c.batch.Nanoseconds()))
		patchT += c.patch
		quantT += c.quant
		batchT += c.batch
		critical += (c.patch + c.batch) / time.Duration(c.workers)
	}
	b.spans.end(parentSpan)
	b.setLayer("infer.patch_ms", "ms", ms(patchT))
	b.setLayer("infer.quant_ms", "ms", ms(quantT))
	// FastKernels.Batch quantizes its input itself; that pass is already
	// in quant_ms, so the kernel total is the rest of the batched pipeline.
	b.setLayer("infer.kernel_ms", "ms", ms(batchT-quantT))
	b.setLayer("infer.other_ms", "ms", callMS-ms(critical))
	b.setLayer("infer.kernel_ceiling_gmacs", "GMAC/s", kernelCeiling(b, reps))
}

// quantizedWeights quantizes a layer's weights the way sim.Engine does,
// at the plan's precision for that layer.
func quantizedWeights(plan *accel.Plan, l *dnn.Layer, raw *mat.Matrix) *quant.Matrix {
	bits := plan.Layers[l.Index].WeightBits
	if bits < 1 {
		bits = plan.Cfg.WeightBits
	}
	return quant.QuantizeWeightsN(raw, bits)
}

// replayConv times one conv layer's patches through extraction,
// quantization and the batched fast pipeline, in the engine's kernel
// batches; the result is per inference (mean over reps).
func replayConv(l *dnn.Layer, x *dnn.Tensor, w *quant.Matrix, reps, ncpu int, pb **quant.PackedBatch) layerCost {
	n := l.OutputPositions()
	kb := sim.DefaultKernelBatch
	if per := n / ncpu; per < kb {
		kb = max(per, 1)
	}
	c := layerCost{workers: min(ncpu, (n+kb-1)/kb)}
	if n < 64 || c.workers < 1 {
		c.workers = 1
	}
	fk := sim.NewFastKernels(w)
	rows := w.Rows
	flat := make([]float64, kb*rows)
	for r := 0; r < reps; r++ {
		for lo := 0; lo < n; lo += kb {
			bs := min(kb, n-lo)
			t0 := time.Now()
			for i := 0; i < bs; i++ {
				pos := lo + i
				x.PatchInto(flat[i*rows:(i+1)*rows], l, pos/l.OutW, pos%l.OutW)
			}
			t1 := time.Now()
			*pb = quant.QuantizeBatchFlatCodesInto(*pb, flat[:bs*rows], rows, bs)
			t2 := time.Now()
			fk.Batch(flat[:bs*rows], rows, bs)
			t3 := time.Now()
			c.patch += t1.Sub(t0)
			c.quant += t2.Sub(t1)
			c.batch += t3.Sub(t2)
		}
	}
	c.patch /= time.Duration(reps)
	c.quant /= time.Duration(reps)
	c.batch /= time.Duration(reps)
	return c
}

// replayFC times one FC layer at batch 1: one member, one goroutine, no
// patch extraction.
func replayFC(in []float64, w *quant.Matrix, reps int, pb **quant.PackedBatch) layerCost {
	c := layerCost{workers: 1}
	fk := sim.NewFastKernels(w)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		*pb = quant.QuantizeBatchFlatCodesInto(*pb, in, w.Rows, 1)
		t1 := time.Now()
		fk.Batch(in, w.Rows, 1)
		c.quant += t1.Sub(t0)
		c.batch += time.Since(t1)
	}
	c.quant /= time.Duration(reps)
	c.batch /= time.Duration(reps)
	return c
}

// kernelCeiling is the batched fast pipeline's throughput on the paper's
// Fig. 5 layer (3×3×12 → 128) at kernel batch 128: the best GMAC/s the
// kernels reach on this host, against which each layer's gmacs reads.
func kernelCeiling(b *bench, reps int) float64 {
	l := &dnn.Layer{Name: "fig5", Kind: dnn.Conv, K: 3, InC: 12, OutC: 128, Stride: 1, InH: 8, InW: 8}
	w := quant.QuantizeWeights(dnn.SyntheticWeights(l, b.seed))
	const batch = 128
	rows := w.Rows
	flat := make([]float64, batch*rows)
	for k := 0; k < batch; k++ {
		copy(flat[k*rows:], dnn.SyntheticInput(l, b.seed+int64(k)))
	}
	fk := sim.NewFastKernels(w)
	fk.Batch(flat, rows, batch)
	iters := 200 * reps
	id := b.spans.begin("sim.FastKernels.Batch.fig5", 0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fk.Batch(flat, rows, batch)
	}
	d := time.Since(start)
	b.spans.end(id)
	return float64(rows*w.Cols*batch*iters) / float64(d.Nanoseconds())
}
