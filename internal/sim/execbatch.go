package sim

import (
	"errors"
	"math"

	"autohet/internal/accel"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
)

// Batched functional execution: the bit-serial crossbar pipeline of exec.go
// evaluated for a whole quant.PackedBatch of input vectors at once. Every
// packed weight word is loaded once per batch and reused B·InputBits times
// (quant.PackedPlane.ColSumCycles), so the per-MVM cost of walking the plane
// stack amortizes across the batch exactly like the serving fleet amortizes
// per-request overhead via dynamic batching. All partial sums are exact
// integers, so the batched kernels are bit-identical to B independent
// single-vector MVMs — asserted per member against the byte-per-cell
// reference in tests, never within a tolerance. The single-vector entry
// points are these kernels run on a one-member batch (execOne).
//
// Noise ordering: the bit-serial noisy path draws each member's read-noise
// samples from that member's own stream in the exact (band, grid-col,
// cycle, plane, column) order of the byte-per-cell reference
// (execCrossbarNoisyScalar), so faulted/repaired batched results stay
// bit-identical to one MVM run alone too. The ideal kernels are free to
// fuse all InputBits cycles per weight word because exact integer
// accumulation is order-independent.

// ExecuteMVMBatch computes the layer's MVM for a packed batch of B input
// patches on the mapped crossbar grid of la. out is member-major with
// length B·w.Cols (member k's outputs at out[k*w.Cols:(k+1)*w.Cols]), in
// integer product units like ExecuteMVM. Stats are per batch: exactly B
// times AnalyticExecStats, since the crossbar performs every (cycle, plane,
// bitline) conversion once per batch member regardless of how the digital
// kernel amortizes the weight walk.
func ExecuteMVMBatch(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, pb *quant.PackedBatch) ([]float64, ExecStats, error) {
	if err := checkBatchShapes(cfg, la, w, pb); err != nil {
		return nil, ExecStats{}, err
	}
	out := make([]float64, pb.B*w.Cols)
	var stats ExecStats
	execPackedGridBatch(cfg, la, w.Packed(), pb, make([]int64, pb.B), out, w.Cols, &stats)
	applyCorrectionBatch(out, w, pb)
	return out, stats, nil
}

// checkBatchShapes validates la/w/pb agreement for one batched MVM. The
// popcount kernels read the batch's digit slab, so a codes-only batch
// (quant.QuantizeBatchFlatCodesInto) is an error, not an index panic.
func checkBatchShapes(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, pb *quant.PackedBatch) error {
	if err := checkMVMShapes(cfg, la, w, pb.N); err != nil {
		return err
	}
	if len(pb.Digits) < pb.Words*pb.B*quant.InputBits {
		return errors.New("sim: batch carries no digit slab; the bit-serial kernels need QuantizeBatchFlatInto or PackInputs")
	}
	return nil
}

// execPackedGridBatch runs the ideal batched bit-serial pipeline over the
// layer's whole crossbar grid, summing shifted partial sums for every
// batch member into the member-major out (zeroed first). acc is kernel
// scratch of length ≥ pb.B. Exact integer accumulation makes both the
// cycle order and the crossbar band splits invisible — a column's band sums
// add to its full-height sum, `==` (fuzz-asserted) — so the digital kernel
// fuses all quant.InputBits cycles AND all row bands into one sweep per
// (plane, column). The crossbar still performs every per-band conversion,
// so DAC/ADC work is priced analytically, which equals the per-band
// accounting exactly (ActiveRows/ActiveCols sum over the grid).
// It reads all quant.InputBits digits whatever cfg.InputBits says; the
// ExecuteMVM* entry points reject a config that differs (checkMVMShapes).
func execPackedGridBatch(cfg hw.Config, la *accel.LayerAlloc, pm *quant.PackedMatrix, pb *quant.PackedBatch, acc []int64, out []float64, cols int, stats *ExecStats) {
	B := pb.B
	acc = acc[:B]
	an := AnalyticExecStats(cfg, la, len(pm.Planes))
	stats.Crossbars += an.Crossbars * B
	stats.DACConversions += an.DACConversions * int64(B)
	stats.ADCConversions += an.ADCConversions * int64(B)
	clear(out[:B*cols])
	for _, p := range pm.Planes {
		shift := float64(int64(1) << uint(p.Bit))
		for j := 0; j < cols; j++ {
			clear(acc)
			p.ColSumCycles(j, pb, acc)
			for k, s := range acc {
				out[k*cols+j] += shift * float64(s)
			}
		}
	}
}

// execPackedGridBatchNoisy is execPackedGridBatch with one read-noise sample
// per digitized bitline per member, drawn from noise[k] in the exact
// (band, grid-col, cycle, plane, column) order of execCrossbarNoisyScalar —
// so each member is bit-identical to the byte-per-cell reference with its
// own stream. It cannot fuse cycles (noise order is per cycle), but still
// loads each weight word once per batch per cycle via ColRangeSumBatch.
// sums is kernel scratch of length ≥ pb.B; out (member-major) is zeroed
// first, then accumulated.
func execPackedGridBatchNoisy(cfg hw.Config, la *accel.LayerAlloc, pm *quant.PackedMatrix, pb *quant.PackedBatch, noise []func() float64, sums []int64, out []float64, cols int, stats *ExecStats) {
	B := pb.B
	sums = sums[:B]
	clear(out[:B*cols])
	forEachCrossbar(la, func(r0, r1, c0, c1 int) {
		stats.Crossbars += B
		for ib := 0; ib < cfg.InputBits; ib++ {
			stats.DACConversions += int64(r1-r0) * int64(len(pm.Planes)) * int64(B)
			for _, p := range pm.Planes {
				shift := float64(int64(1) << uint(ib+p.Bit))
				for j := c0; j < c1; j++ {
					p.ColRangeSumBatch(j, r0, r1, ib, pb, sums)
					for k, s := range sums {
						out[k*cols+j] += shift * (float64(s) + noise[k]())
					}
				}
				stats.ADCConversions += int64(c1-c0) * int64(B)
			}
		}
	})
}

// packedAggregateMVMBatch is the fast path of the faulty and repaired
// engines: full-height packed popcounts per (plane, column) over the planes
// served (faulted or repaired), with read noise folded into one
// distribution-equivalent aggregate sample per (plane, column) per member,
// drawn from each member's own stream in (plane, column) order. With
// ReadNoiseSigma 0 it is bit-identical to the bit-serial pipeline
// (ExecuteMVMFaulty / ExecuteMVMRepaired). acc is kernel scratch of length
// ≥ pb.B; out is member-major and zeroed first.
func packedAggregateMVMBatch(cfg hw.Config, pm *quant.PackedMatrix, w *quant.Matrix, pb *quant.PackedBatch, fm *fault.Model, noise []func() float64, acc []int64, out []float64) {
	noisy := fm != nil && fm.ReadNoiseSigma > 0
	aggSigma := math.Sqrt(aggregateNoiseVar(cfg))
	B := pb.B
	cols := w.Cols
	acc = acc[:B]
	clear(out[:B*cols])
	for _, p := range pm.Planes {
		shift := float64(int64(1) << uint(p.Bit))
		noiseScale := shift * aggSigma
		for j := 0; j < cols; j++ {
			clear(acc)
			p.ColSumCycles(j, pb, acc)
			for k, s := range acc {
				out[k*cols+j] += shift * float64(s)
				if noisy {
					out[k*cols+j] += noiseScale * noise[k]()
				}
			}
		}
	}
	applyCorrectionBatch(out, w, pb)
}

// integerMVMBatch is the scalar fast path over a batch: the exact integer
// product qᵀ·u_k per member, written member-major into out through the
// epilogue (Matrix.Epilogue, with relu), as BlockedMatrix.MulBatch writes
// it. acc is scratch of length ≥ w.Cols (re-zeroed per member).
func integerMVMBatch(out []float64, acc []int64, w *quant.Matrix, pb *quant.PackedBatch, relu bool) {
	cols := w.Cols
	for k := 0; k < pb.B; k++ {
		acc = acc[:cols]
		clear(acc)
		o := out[k*cols : (k+1)*cols]
		integerMVMInto(o, acc, w, pb.Member(k))
		w.Epilogue(o, pb.Scales[k], relu)
	}
}

// applyCorrectionBatch subtracts each member's offset-binary bias from its
// output columns, using the batch's cached code sums.
func applyCorrectionBatch(out []float64, w *quant.Matrix, pb *quant.PackedBatch) {
	off := float64(w.Offset())
	for k := 0; k < pb.B; k++ {
		corr := off * pb.USums[k]
		o := out[k*w.Cols : (k+1)*w.Cols]
		for j := range o {
			o[j] -= corr
		}
	}
}
