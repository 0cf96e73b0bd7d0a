package sim

import (
	"autohet/internal/quant"
)

// FastKernels exposes the engine's fast-path MVM pipeline for one weight
// matrix as standalone calls, for benchmarks and cross-checks.
//
// Single is the unbatched per-patch baseline: per-patch quantization
// (including the bit-serial digit slab a single quant.Input packs)
// followed by the single-vector integer kernel. This was the serving
// engine's only fast path before kernel batching, so it is the baseline
// batched legs are compared against.
//
// Batch is the engine's fast-mode kernel batch on an already-extracted
// patch slab: codes-only batch quantization (quant.QuantizeBatchFlatCodesInto,
// which the engine's fused conv input path matches bit for bit) followed by
// the AVX2 blocked kernel, or the scalar batch kernel where the blocked one
// is unavailable.
//
// Both return dequantized outputs bit-identical to the bit-serial crossbar
// reference followed by the engine's dequantization (asserted in tests and
// by the benchmark legs before timing). Scratch is reused across calls, so
// warm calls allocate nothing; a FastKernels is not safe for concurrent
// use.
type FastKernels struct {
	le *layerExec // a fast-mode layer with no crossbar plan
	bs batchScratch

	// Single's buffers: the quantized input and the output accumulators.
	in  *quant.Input
	out []float64
	acc []int64
}

// NewFastKernels prepares the fast pipelines for w, building the same
// kernel representation the engine's prepareLayer builds.
func NewFastKernels(w *quant.Matrix) *FastKernels {
	return &FastKernels{le: &layerExec{w: w, mode: modeFast, bw: w.Blocked()},
		out: make([]float64, w.Cols), acc: make([]int64, w.Cols)}
}

// Single runs one patch through the unbatched per-patch pipeline and
// returns its dequantized outputs (valid until the next call).
func (fk *FastKernels) Single(patch []float64) []float64 {
	w := fk.le.w
	fk.in = quant.QuantizeInputInto(fk.in, patch)
	clear(fk.acc)
	integerMVMInto(fk.out, fk.acc, w, fk.in.U)
	for j := range fk.out {
		fk.out[j] = w.ScaleFor(j) * fk.in.Scale * fk.out[j]
	}
	return fk.out
}

// Batch runs b member-major patches of length n (flat, like the engine's
// patch slab) through the batched pipeline and returns member-major
// dequantized outputs (valid until the next call).
func (fk *FastKernels) Batch(flat []float64, n, b int) []float64 {
	fk.bs.pb = quant.QuantizeBatchFlatCodesInto(fk.bs.pb, flat, n, b)
	out := fk.bs.outFor(b * fk.le.w.Cols)
	var stats InferenceStats
	fk.le.applyBatch(&fk.bs, out, &stats)
	return out
}
