package sim

import (
	"autohet/internal/accel"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/repair"
)

// Repaired execution: the fault-aware pipeline of ExecuteMVMFaulty preceded
// by a detect-and-repair pass (package repair). The controller march-tests
// the layer's crossbars, remaps detected faulty columns onto the plan's
// provisioned spares, masks what it cannot remap, and only then serves MVMs
// from the repaired arrays. When spare capacity covers the fault map the
// result is bit-exact with the ideal ExecuteMVM (read noise aside).

// RepairedLayer is the outcome of one detect-and-repair pass over a layer:
// the bit planes actually stored after remapping/masking (in both byte and
// word-packed form), and the pass statistics. It is valid until the fault
// model changes, so callers serving many MVMs compute it once.
type RepairedLayer struct {
	Planes []*quant.BitPlane
	Packed *quant.PackedMatrix
	Stats  repair.Stats
}

// LayerRegions returns the per-crossbar windows of the layer's unfolded
// weight matrix under its mapping — the repair granularity: one spare-column
// budget per window, whole-window relocation onto a spare crossbar.
func LayerRegions(la *accel.LayerAlloc) []repair.Region {
	var regions []repair.Region
	forEachCrossbar(la, func(r0, r1, c0, c1 int) {
		regions = append(regions, repair.Region{R0: r0, R1: r1, C0: c0, C1: c1})
	})
	return regions
}

// RepairLayer runs one detect-and-repair pass for the layer under the fault
// model: march-test detection (with the policy's miss rate), spare-column
// and spare-crossbar remapping within the policy's provision, best-effort
// masking of the remainder.
func RepairLayer(la *accel.LayerAlloc, w *quant.Matrix, fm *fault.Model, pol repair.Policy) (*RepairedLayer, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	key := int64(la.Layer.Index + 1)
	ideal := w.Planes()
	if fm.CellFaultRate() == 0 {
		return &RepairedLayer{Planes: ideal, Packed: w.Packed(),
			Stats: repair.Stats{FullyRepaired: true}}, nil
	}
	faulted := fm.ApplyStuckAt(ideal, key)
	truth, detected := pol.Detect(fm, key, w.Rows, w.Cols, len(ideal))
	planes, stats, err := repair.Apply(ideal, faulted, detected, truth, LayerRegions(la), pol.Provision)
	if err != nil {
		return nil, err
	}
	return &RepairedLayer{Planes: planes, Packed: quant.PackPlanes(planes), Stats: stats}, nil
}

// ExecuteMVMRepaired runs one MVM on the mapped grid under a fault model
// after a detect-and-repair pass. A nil or zero model reproduces ExecuteMVM
// exactly; so does any fault map the policy's spares fully cover (asserted
// by property test).
func ExecuteMVMRepaired(cfg hw.Config, la *accel.LayerAlloc, w *quant.Matrix, in *quant.Input, fm *fault.Model, pol repair.Policy) ([]float64, ExecStats, repair.Stats, error) {
	if err := checkMVMShapes(cfg, la, w, in.N); err != nil {
		return nil, ExecStats{}, repair.Stats{}, err
	}
	rl, err := RepairLayer(la, w, fm, pol)
	if err != nil {
		return nil, ExecStats{}, repair.Stats{}, err
	}
	out, stats := execOne(cfg, la, w, rl.Packed, in, fm.Noise(int64(la.Layer.Index+1)))
	return out, stats, rl.Stats, nil
}
