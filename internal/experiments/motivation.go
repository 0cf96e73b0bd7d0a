package experiments

import (
	"fmt"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/report"
	"autohet/internal/xbar"
)

// Fig3 reproduces the motivation study (paper Fig. 3): VGG16 mapped onto
// five homogeneous SXB accelerators versus the hand-tuned heterogeneous
// strategy (512×512 for the first ten layers, 256×256 for the last six),
// comparing utilization, energy, and RUE.
func (s *Suite) Fig3() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Fig. 3 — homogeneous vs manual-heterogeneous crossbars (VGG16)",
		Note: "Paper shape: homogeneous gets high utilization (32x32) OR low energy (512x512), " +
			"never both; Manual-Hetero attains the highest RUE.",
		Header: []string{"Accelerator", "Utilization", "Energy (nJ)", "RUE"},
	}
	for _, shape := range xbar.SquareCandidates() {
		r, err := s.evaluate(m, accel.Homogeneous(16, shape), false)
		if err != nil {
			return nil, err
		}
		t.AddRow(shape.String(), report.Pct(r.Utilization), report.E(r.EnergyNJ), report.E(r.RUE()))
	}
	r, err := s.evaluate(m, accel.ManualHetero(16), false)
	if err != nil {
		return nil, err
	}
	t.AddRow("Manual-Hetero", report.Pct(r.Utilization), report.E(r.EnergyNJ), report.E(r.RUE()))
	return t, nil
}

// Fig4 reproduces the tile-wastage study (paper Fig. 4): the proportion of
// empty crossbars when VGG16's first four layers map onto 64×64 crossbars,
// as the slots per tile grow from 4 to 32.
func (s *Suite) Fig4() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Fig. 4 — empty-crossbar proportion vs tile size (VGG16 L1–L4, 64x64 XBs)",
		Note: "Paper shape: ~24% average empty at 4 XBs/tile rising to ~60% at 32; " +
			"only ~58% of crossbars utilized on average.",
		Header: []string{"Layer", "4/tile", "8/tile", "16/tile", "32/tile"},
	}
	tileSizes := []int{4, 8, 16, 32}
	sums := make([]float64, len(tileSizes))
	for li, l := range m.Mappable()[:4] {
		row := []string{fmt.Sprintf("Layer %d", li+1)}
		for ti, slots := range tileSizes {
			cfg := s.Cfg
			cfg.PEsPerTile = slots
			single, err := singleLayerModel(l)
			if err != nil {
				return nil, err
			}
			p, err := accel.BuildPlan(cfg, single, accel.Homogeneous(1, xbar.Square(64)), false)
			if err != nil {
				return nil, err
			}
			empty := p.EmptySlotFraction()
			sums[ti] += empty
			row = append(row, report.Pct(100*empty))
		}
		t.AddRow(row...)
	}
	avg := []string{"Average"}
	for _, v := range sums {
		avg = append(avg, report.Pct(100*v/4))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig5 reproduces the utilization/ADC trade-off example (paper Fig. 5):
// 128 kernels of 3×3×12 mapped onto 64×64 and 128×128 crossbars in 4-slot
// tiles. The paper reports utilization 27/32 vs 27/128 and 256 vs 128
// activated ADC bitlines.
func (s *Suite) Fig5() (*report.Table, error) {
	t := &report.Table{
		Title:  "Fig. 5 — one layer (128 kernels of 3x3x12) on 64x64 vs 128x128",
		Note:   "Paper: XB64 utilization 27/32, 256 ADCs; XB128 utilization 27/128, 128 ADCs.",
		Header: []string{"Crossbar", "Tile utilization", "Active ADC bitlines", "Slots used", "Energy (nJ)"},
	}
	layer := &dnn.Layer{Name: "fig5", Kind: dnn.Conv, K: 3, InC: 12, OutC: 128, Stride: 1, Pad: 0, InH: 8, InW: 8}
	m, err := singleLayerModel(layer)
	if err != nil {
		return nil, err
	}
	for _, shape := range []xbar.Shape{xbar.Square(64), xbar.Square(128)} {
		r, err := s.evaluatePlan(m, accel.Homogeneous(1, shape), false)
		if err != nil {
			return nil, err
		}
		la := r.Plan.Layers[0]
		used, alloc := la.Mapping.UsedCells, r.Plan.AllocatedCells()
		g := gcd64(used, alloc)
		t.AddRow(
			shape.String(),
			fmt.Sprintf("%s (%d/%d)", report.Pct(r.Utilization), used/g, alloc/g),
			report.I(la.Mapping.ActiveCols),
			report.I(la.SlotsNeeded()),
			report.E(r.EnergyNJ),
		)
	}
	return t, nil
}

// gcd64 reduces the utilization fraction to the paper's 27/32 form.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// singleLayerModel wraps one mappable layer in a standalone flat model so it
// can be allocated and simulated in isolation.
func singleLayerModel(l *dnn.Layer) (*dnn.Model, error) {
	clone := &dnn.Layer{
		Name: l.Name, Kind: l.Kind, K: l.K, InC: l.InC, OutC: l.OutC,
		Stride: l.Stride, Pad: l.Pad, InH: l.InH, InW: l.InW,
	}
	if clone.InH == 0 {
		clone.InH, clone.InW = 8, 8
	}
	return dnn.NewFlatModel("layer:"+l.Name, clone.InH, clone.InW, clone.InC, []*dnn.Layer{clone})
}
