package sim

import (
	"autohet/internal/quant"
)

// FastKernels exposes the engine's fast-path MVM pipeline for one weight
// matrix as standalone calls, for benchmarks and cross-checks.
//
// Single is the unbatched per-patch baseline: per-patch quantization
// (including the byte-per-row bit-serial digits a single quant.Input
// holds) followed by the single-vector integer kernel. This was the serving
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
	le *layerExec // a fast-mode layer with no crossbar plan and no ReLU
	bs batchScratch

	// Single's buffers: the quantized input and the output accumulators;
	// Batch's outputs.
	in   *quant.Input
	out  []float64
	acc  []int64
	bout []float64
}

// NewFastKernels prepares the fast pipelines for w, building the same
// kernel representation the engine's prepareLayer builds (with w's own
// row order: the patches FastKernels takes are C-major).
func NewFastKernels(w *quant.Matrix) *FastKernels {
	return &FastKernels{le: &layerExec{w: w, fw: w, mode: modeFast, bw: w.Blocked()},
		out: make([]float64, w.Cols), acc: make([]int64, w.Cols)}
}

// Single runs one patch through the unbatched per-patch pipeline and
// returns its dequantized outputs (valid until the next call).
func (fk *FastKernels) Single(patch []float64) []float64 {
	w := fk.le.w
	fk.in = quant.QuantizeInputInto(fk.in, patch)
	clear(fk.acc)
	integerMVMInto(fk.out, fk.acc, w, fk.in.U)
	w.Epilogue(fk.out, fk.in.Scale, false)
	return fk.out
}

// Batch runs b member-major patches of length n (flat, like the engine's
// patch slab) through the batched pipeline and returns member-major
// dequantized outputs (valid until the next call).
func (fk *FastKernels) Batch(flat []float64, n, b int) []float64 {
	quant.QuantizeBatchFlatCodesInto(&fk.bs.pb, flat, n, b)
	out := grow(&fk.bout, b*fk.le.w.Cols)
	var stats InferenceStats
	fk.le.applyBatch(&fk.bs, out, &stats)
	return out
}
