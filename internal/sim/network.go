package sim

import (
	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/quant"
	"autohet/internal/repair"
)

// Whole-network functional inference: stream a feature map through the
// mapped accelerator layer by layer, quantizing activations, performing
// each sliding-window MVM on the layer's crossbar grid, and applying ReLU
// and pooling between layers. This is the end-to-end check that the
// heterogeneous mapping computes the same network the float reference
// (dnn.RunReference) defines, up to 8-bit quantization error.
//
// The execution machinery lives in Engine (engine.go): per-layer caches of
// quantized weights and packed/faulted/repaired planes, word-packed
// popcount kernels, and parallel patch streaming. RunInference wraps a
// transient Engine; callers serving many inferences over one plan should
// hold an Engine so the caches persist across calls.

// InferenceOptions configures RunInference.
type InferenceOptions struct {
	// Seed selects the synthetic weights; it must match the seed used for
	// the reference run being compared against.
	Seed int64
	// BitExact switches the per-MVM engine from the fast integer path to
	// the full bit-sliced, bit-serial crossbar execution (ExecuteMVM).
	// Both produce identical integers (asserted in tests); BitExact
	// additionally exercises the plane/cycle structure at the cost of one
	// popcount word per 64 rows per (cycle, plane, bitline).
	BitExact bool
	// Faults, when non-nil, injects ReRAM device non-idealities (stuck-at
	// cells, read noise) into every MVM. Stuck-at faults are exact on both
	// engines; read noise is per-conversion under BitExact and folded into
	// a distribution-equivalent aggregate on the fast path.
	Faults *fault.Model
	// PerColumnScales quantizes each layer's weights with one scale per
	// output column (per-kernel), tightening quantization error at no
	// hardware cost (the scale folds into the column's shift-and-add).
	PerColumnScales bool
	// Repair, when non-nil, runs a detect-and-repair pass (march-test
	// detection, spare remapping, bounded-error masking — package repair) over
	// every layer's stuck-at fault map before serving MVMs. A zero Provision
	// in the policy draws on the plan's provisioned spares
	// (accel.Plan.Spares) instead. Ignored when Faults injects no stuck-at
	// cells.
	Repair *repair.Policy
}

// InferenceStats aggregates the work one inference (or RunBatch) performed.
type InferenceStats struct {
	MVMs           int64
	ADCConversions int64
	// KernelBatches counts batched-kernel invocations; MVMs/KernelBatches is
	// the realized mean kernel batch size.
	KernelBatches int64
	// MaxKernelBatch is the largest batch any single kernel call served.
	MaxKernelBatch int
}

// merge folds another accumulator (e.g. one worker's) into st.
func (st *InferenceStats) merge(o InferenceStats) {
	st.MVMs += o.MVMs
	st.ADCConversions += o.ADCConversions
	st.KernelBatches += o.KernelBatches
	if o.MaxKernelBatch > st.MaxKernelBatch {
		st.MaxKernelBatch = o.MaxKernelBatch
	}
}

// RunInference executes one input through the plan's model on the mapped
// crossbars and returns the output vector (logits for the zoo models).
// Each call builds a transient Engine; use NewEngine directly to keep the
// per-layer caches warm across many inferences.
func RunInference(p *accel.Plan, input *dnn.Tensor, opts InferenceOptions) ([]float64, InferenceStats, error) {
	return NewEngine(p).Run(input, opts)
}

// integerMVM computes the exact integer product qᵀ·u — the scalar form the
// engines are asserted against in tests.
func integerMVM(w *quant.Matrix, in *quant.Input) []float64 {
	out := make([]float64, w.Cols)
	integerMVMInto(out, make([]int64, w.Cols), w, in.U)
	return out
}
