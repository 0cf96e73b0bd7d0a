package sim

import (
	"math"

	"autohet/internal/accel"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
)

// Fault-aware execution: the same bit-sliced crossbar pipeline as
// ExecuteMVM, but with stuck-at cells injected into the stored bit planes
// and Gaussian read noise added to every digitized bitline sum. Stuck-at
// faults compose with the packed representation for free: the faulted
// planes are packed once and the popcount kernel reads them unchanged (a
// stuck-at-one cell is a set bit, stuck-at-zero a cleared one).

// faultedPacked returns the layer's packed plane stack under the model's
// stuck-at faults. Fault-free models reuse the matrix's memoized packing.
func faultedPacked(w *quant.Matrix, fm *fault.Model, layerKey int64) *quant.PackedMatrix {
	if fm.CellFaultRate() == 0 {
		return w.Packed()
	}
	return quant.PackPlanes(fm.ApplyStuckAt(w.Planes(), layerKey))
}

// ExecuteMVMFaulty runs one MVM on the mapped grid under a fault model.
// A nil or zero model reproduces ExecuteMVM exactly.
func ExecuteMVMFaulty(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, in *quant.Input, fm *fault.Model) ([]float64, ExecStats, error) {
	if err := fm.Validate(); err != nil {
		return nil, ExecStats{}, err
	}
	if err := checkMVMShapes(cfg, la, w, in.N); err != nil {
		return nil, ExecStats{}, err
	}
	key := int64(la.Layer.Index + 1)
	out, stats := execOne(cfg, la, w, faultedPacked(w, fm, key), in, fm.Noise(key))
	return out, stats, nil
}

// executeMVMFaultyScalar is the byte-per-cell reference for the faulty
// pipeline, retained so tests can assert the packed kernel bit-identical
// under stuck-at faults and (order-preserved) read noise.
func executeMVMFaultyScalar(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, in *quant.Input, fm *fault.Model) ([]float64, ExecStats, error) {
	if err := fm.Validate(); err != nil {
		return nil, ExecStats{}, err
	}
	if err := checkMVMShapes(cfg, la, w, in.N); err != nil {
		return nil, ExecStats{}, err
	}
	key := int64(la.Layer.Index + 1)
	planes := fm.ApplyStuckAt(w.Planes(), key)
	noise := fm.Noise(key)
	out := make([]float64, w.Cols)
	var stats ExecStats
	forEachCrossbar(la, func(r0, r1, c0, c1 int) {
		stats.Crossbars++
		execCrossbarNoisyScalar(cfg, planes, in, r0, r1, c0, c1, out, noise, &stats)
	})
	applyCorrection(out, w, in)
	return out, stats, nil
}

// execCrossbarNoisyScalar mirrors execCrossbarScalar with a noise sample
// added to each bitline sum before digitization.
func execCrossbarNoisyScalar(cfg hw.Config, planes []*quant.BitPlane, in *quant.Input, r0, r1, c0, c1 int, out []float64, noise func() float64, stats *ExecStats) {
	nCols := c1 - c0
	for ib := 0; ib < cfg.InputBits; ib++ {
		digit := in.Digits[ib]
		stats.DACConversions += int64(r1-r0) * int64(len(planes))
		for _, p := range planes {
			shift := float64(int64(1) << uint(ib+p.Bit))
			for j := c0; j < c1; j++ {
				var sum float64
				for i := r0; i < r1; i++ {
					if p.Bits[i*p.Cols+j] != 0 && digit[i] != 0 {
						sum++
					}
				}
				out[j] += shift * (sum + noise())
			}
			stats.ADCConversions += int64(nCols)
		}
	}
}

// aggregateNoiseVar is Σ_ib 4^ib for ib < InputBits: the variance factor of
// folding the per-cycle noise samples of one (plane, column) bitline into a
// single distribution-equivalent aggregate sample.
func aggregateNoiseVar(cfg hw.Config) float64 {
	var v float64
	for ib := 0; ib < cfg.InputBits; ib++ {
		v += math.Pow(4, float64(ib))
	}
	return v
}
