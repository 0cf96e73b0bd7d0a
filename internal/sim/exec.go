package sim

import (
	"fmt"

	"autohet/internal/accel"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/xbar"
)

// Functional execution: run one MVM through the mapped crossbar grid exactly
// as the hardware would — weights bit-sliced over XBPerPE plane crossbars,
// inputs streamed bit-serially, one analog column sum per (cycle, plane,
// crossbar, active bitline), partial sums shifted and added across bands —
// and return the integer-exact result. Tests use this to prove the mapping
// geometry preserves MVM semantics and that the analytic activation counts
// in Simulate match what execution actually performs.
//
// The single-vector entry points (ExecuteMVM, ExecuteMVMFaulty,
// ExecuteMVMRepaired) run their one input as a one-member batch through the
// word-packed popcount kernels of execbatch.go, the same kernels sim.Engine
// serves with: one read cycle per bitline is bits.OnesCount64(planeWord &
// digitWord) over ⌈rows/64⌉ words, exactly the analog population count the
// crossbar performs. The byte-loop kernel is kept as ExecuteMVMScalar, the
// reference both tests and the MVM benchmark compare against — the two are
// asserted `==`-identical, never within a tolerance. Every partial sum is an
// integer far below 2^53, so float64 accumulation is exact and summation
// order cannot perturb results.

// ExecStats counts the component activations one executed MVM performed.
type ExecStats struct {
	ADCConversions int64
	DACConversions int64
	Crossbars      int
}

// AnalyticExecStats computes, from the mapping geometry alone, the stats one
// executed MVM must produce: every active wordline is DAC-driven once per
// (cycle, plane) and every active bitline ADC-digitized once per
// (cycle, plane). Both functional kernels are asserted against it, so
// energy/latency attribution cannot drift with kernel rewrites.
func AnalyticExecStats(cfg hw.Config, la *accel.LayerAlloc, planes int) ExecStats {
	m := la.Mapping
	return ExecStats{
		Crossbars:      m.Crossbars(),
		DACConversions: int64(m.ActiveRows) * int64(planes) * int64(cfg.InputBits),
		ADCConversions: int64(m.ActiveCols) * int64(planes) * int64(cfg.InputBits),
	}
}

// ExecuteMVM computes the layer's MVM for one input patch on the mapped
// crossbar grid of la. w is the layer's quantized unfolded weight matrix
// (C_in·k² × C_out) and in the quantized input patch (length C_in·k²).
// The result is in integer product units: out[j] = Σ_i q[i][j]·u[i].
func ExecuteMVM(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, in *quant.Input) ([]float64, ExecStats, error) {
	if err := checkMVMShapes(cfg, la, w, in.N); err != nil {
		return nil, ExecStats{}, err
	}
	out, stats := execOne(cfg, la, w, w.Packed(), in, nil)
	return out, stats, nil
}

// execOne runs one input as a one-member batch over the plane stack pm
// (ideal, faulted or repaired): the ideal batch kernel when noise is nil,
// else the noisy one with noise as the member's read-noise stream.
func execOne(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, pm *quant.PackedMatrix, in *quant.Input, noise func() float64) ([]float64, ExecStats) {
	pb := quant.PackInputs([]*quant.Input{in})
	out := make([]float64, w.Cols)
	acc := make([]int64, 1)
	var stats ExecStats
	if noise == nil {
		execPackedGridBatch(cfg, la, pm, pb, acc, out, w.Cols, &stats)
	} else {
		execPackedGridBatchNoisy(cfg, la, pm, pb, []func() float64{noise}, acc, out, w.Cols, &stats)
	}
	applyCorrectionBatch(out, w, pb)
	return out, stats
}

// ExecuteMVMScalar is the byte-per-cell reference engine: the same
// bit-serial, bit-sliced pipeline evaluated one cell at a time. It exists to
// prove the packed kernel exact (tests assert `==` equality of outputs and
// stats) and to measure its speedup (BenchmarkExecuteMVMScalar, BENCH_mvm).
func ExecuteMVMScalar(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, in *quant.Input) ([]float64, ExecStats, error) {
	if err := checkMVMShapes(cfg, la, w, in.N); err != nil {
		return nil, ExecStats{}, err
	}
	planes := w.Planes()
	out := make([]float64, w.Cols)
	var stats ExecStats
	forEachCrossbar(la, func(r0, r1, c0, c1 int) {
		stats.Crossbars++
		execCrossbarScalar(cfg, planes, in, r0, r1, c0, c1, out, &stats)
	})
	applyCorrection(out, w, in)
	return out, stats, nil
}

// checkMVMShapes validates that w and n-row inputs fit the layer of la, and
// that cfg streams the quantizer's input width: the kernels read every one
// of an input code's quant.InputBits digits.
func checkMVMShapes(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, n int) error {
	if cfg.InputBits != quant.InputBits {
		return fmt.Errorf("sim: functional execution streams %d-bit input codes, config has InputBits %d", quant.InputBits, cfg.InputBits)
	}
	l := la.Layer
	if l.GroupCount() > 1 {
		return fmt.Errorf("sim: functional execution of grouped convolutions is not supported (layer %s)", l.Name)
	}
	rows, cols := l.UnfoldedRows(), l.UnfoldedCols()
	if w.Rows != rows || w.Cols != cols {
		return shapeErr(w.Rows, w.Cols, rows, cols)
	}
	if n != rows {
		return lengthErr(n, rows)
	}
	return nil
}

// forEachCrossbar visits the non-empty (band, grid-column) windows of the
// layer's mapping in execution order.
func forEachCrossbar(la *accel.LayerAlloc, fn func(r0, r1, c0, c1 int)) {
	m := la.Mapping
	cols := la.Layer.UnfoldedCols()
	for band := 0; band < m.GridRows; band++ {
		r0, r1 := bandRows(m, band)
		if r0 >= r1 {
			continue
		}
		for cg := 0; cg < m.GridCols; cg++ {
			c0 := cg * la.Shape.C
			c1 := min(c0+la.Shape.C, cols)
			fn(r0, r1, c0, c1)
		}
	}
}

// applyCorrection subtracts the offset-binary bias, once per output column.
func applyCorrection(out []float64, w *quant.Matrix, in *quant.Input) {
	corr := w.Correction(in)
	for j := range out {
		out[j] -= corr
	}
}

// bandRows returns the unfolded-matrix row range [r0, r1) stored by band.
func bandRows(m xbar.Mapping, band int) (int, int) {
	rows := m.Layer.UnfoldedRows()
	if m.SplitKernel {
		r0 := band * m.Shape.R
		return r0, min(r0+m.Shape.R, rows)
	}
	k2 := m.Layer.KernelElems()
	ch0 := band * m.KernelsPerBand
	ch1 := min(ch0+m.KernelsPerBand, m.Layer.InC)
	return ch0 * k2, ch1 * k2
}

// execCrossbarScalar is the byte-per-cell crossbar read the packed kernels
// replace, retained as the equality reference.
func execCrossbarScalar(cfg hw.Config, planes []*quant.BitPlane, in *quant.Input, r0, r1, c0, c1 int, out []float64, stats *ExecStats) {
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
				out[j] += shift * sum
			}
			stats.ADCConversions += int64(nCols)
		}
	}
}

func shapeErr(gotR, gotC, wantR, wantC int) error {
	return fmt.Errorf("sim: weight matrix %dx%d, layer unfolds to %dx%d", gotR, gotC, wantR, wantC)
}

func lengthErr(got, want int) error {
	return fmt.Errorf("sim: input length %d, want %d", got, want)
}
