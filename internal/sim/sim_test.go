package sim

import (
	"math"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/xbar"
)

func cfg() hw.Config { return hw.DefaultConfig() }

func singleLayerPlan(t *testing.T, k, inC, outC int, shape xbar.Shape) *accel.Plan {
	t.Helper()
	l := &dnn.Layer{Name: "c", Kind: dnn.Conv, K: k, InC: inC, OutC: outC, Stride: 1, Pad: 0, InH: 8, InW: 8}
	m, err := dnn.NewFlatModel("one", 8, 8, inC, []*dnn.Layer{l})
	if err != nil {
		t.Fatal(err)
	}
	p, err := accel.BuildPlan(cfg(), m, accel.Homogeneous(1, shape), false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Paper Fig. 5: the 64×64 mapping activates 256 ADC columns, the 128×128
// mapping 128. Per cycle and plane, conversions must scale exactly 2:1.
func TestSimulateFig5ADCRatio(t *testing.T) {
	p64 := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	p128 := singleLayerPlan(t, 3, 12, 128, xbar.Square(128))
	r64, err := Simulate(p64)
	if err != nil {
		t.Fatal(err)
	}
	r128, err := Simulate(p128)
	if err != nil {
		t.Fatal(err)
	}
	if r64.ADCConversions != 2*r128.ADCConversions {
		t.Fatalf("ADC conversions %d vs %d, want 2:1", r64.ADCConversions, r128.ADCConversions)
	}
	// Same layer, same MVM count: per-MVM ADC count is ActiveCols×planes×bits.
	l := p64.Model.Mappable()[0]
	perMVM := r64.ADCConversions / int64(l.OutputPositions())
	if perMVM != 256*8*8 {
		t.Fatalf("per-MVM conversions = %d, want 256·8·8", perMVM)
	}
	// More ADC activity must cost more energy.
	if r64.EnergyNJ <= r128.EnergyNJ {
		t.Fatalf("64x64 energy %v must exceed 128x128 %v", r64.EnergyNJ, r128.EnergyNJ)
	}
}

func TestSimulateEnergyUtilizationTradeoff(t *testing.T) {
	// §2.2.1: on VGG16, small crossbars win utilization, large crossbars
	// win energy.
	m := dnn.VGG16()
	small, _ := accel.BuildPlan(cfg(), m, accel.Homogeneous(16, xbar.Square(32)), false)
	large, _ := accel.BuildPlan(cfg(), m, accel.Homogeneous(16, xbar.Square(512)), false)
	rs, err := Simulate(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Simulate(large)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Utilization <= rl.Utilization {
		t.Fatalf("32x32 util %v must exceed 512x512 %v", rs.Utilization, rl.Utilization)
	}
	if rs.EnergyNJ <= rl.EnergyNJ {
		t.Fatalf("32x32 energy %v must exceed 512x512 %v", rs.EnergyNJ, rl.EnergyNJ)
	}
}

func TestRewardWithinUnitInterval(t *testing.T) {
	// Eq. 2: R = u/e stays in [0,1] for the paper workloads.
	for _, m := range dnn.Zoo() {
		for _, s := range xbar.SquareCandidates() {
			p, err := accel.BuildPlan(cfg(), m, accel.Homogeneous(m.NumMappable(), s), true)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Simulate(p)
			if err != nil {
				t.Fatal(err)
			}
			if rw := r.Reward(); rw <= 0 || rw > 1 {
				t.Errorf("%s/%v: reward %v outside (0,1]", m.Name, s, rw)
			}
		}
	}
}

func TestSimulatePoolEnergyCounted(t *testing.T) {
	withPool := dnn.AlexNet() // has pool layers
	p, _ := accel.BuildPlan(cfg(), withPool, accel.Homogeneous(withPool.NumMappable(), xbar.Square(64)), false)
	r, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	var layerPJ float64
	for _, lr := range r.Layers {
		layerPJ += lr.EnergyPJ
	}
	if r.EnergyNJ*1000 <= layerPJ {
		t.Fatal("pool energy missing from total")
	}
}

func TestSimulateLatencyPositiveAndSequential(t *testing.T) {
	m := dnn.VGG16()
	p, _ := accel.BuildPlan(cfg(), m, accel.Homogeneous(16, xbar.Square(64)), false)
	r, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, lr := range r.Layers {
		if lr.LatencyNS <= 0 {
			t.Fatalf("layer %s latency %v", lr.Layer.Name, lr.LatencyNS)
		}
		sum += lr.LatencyNS
	}
	if math.Abs(sum-r.LatencyNS) > 1e-6 {
		t.Fatalf("latency %v != layer sum %v", r.LatencyNS, sum)
	}
}

func TestSimulateRejectsBrokenPlan(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	// Corrupt: drop a placement so validation fails.
	p.Layers[0].Placements = nil
	if _, err := Simulate(p); err == nil {
		t.Fatal("Simulate must reject invalid plans")
	}
}

// Functional execution: the bit-sliced, bit-serial crossbar computation must
// reproduce the integer MVM exactly, for square, rectangular, multi-band,
// multi-column and split-kernel mappings.
func TestExecuteMVMExact(t *testing.T) {
	cases := []struct {
		k, inC, outC int
		shape        xbar.Shape
	}{
		{3, 12, 128, xbar.Square(64)},  // Fig. 5, 2×2 grid
		{3, 12, 128, xbar.Square(128)}, // Fig. 5, single crossbar
		{3, 7, 40, xbar.Rect(36, 32)},  // rectangular, partial bands
		{1, 70, 50, xbar.Square(32)},   // FC-like, 3 bands
		{7, 3, 20, xbar.Square(32)},    // split kernel (49 rows > 32)
	}
	for _, c := range cases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, 11))
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		out, stats, err := ExecuteMVM(cfg(), la, w, in)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for j := 0; j < l.OutC; j++ {
			var want float64
			for i := 0; i < l.UnfoldedRows(); i++ {
				want += float64(w.At(i, j)) * float64(in.U[i])
			}
			if math.Abs(out[j]-want) > 1e-6 {
				t.Fatalf("%v col %d: got %v want %v", c, j, out[j], want)
			}
		}
		if stats.Crossbars != la.Mapping.Crossbars() {
			t.Fatalf("%v: executed %d crossbars, mapping has %d", c, stats.Crossbars, la.Mapping.Crossbars())
		}
	}
}

// The analytic per-MVM activation counts used by Simulate must equal what
// the byte-per-cell reference execution counts, crossbar by crossbar.
func TestAnalyticCountsMatchExecution(t *testing.T) {
	for _, shape := range []xbar.Shape{xbar.Square(64), xbar.Rect(36, 32), xbar.Square(32)} {
		p := singleLayerPlan(t, 3, 12, 40, shape)
		la := p.Layers[0]
		l := la.Layer
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, 3))
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 4))
		_, stats, err := ExecuteMVMScalar(cfg(), la, w, in)
		if err != nil {
			t.Fatal(err)
		}
		wantADC := int64(la.Mapping.ActiveCols) * 8 * 8
		if stats.ADCConversions != wantADC {
			t.Fatalf("%v: executed %d ADC conversions, analytic %d", shape, stats.ADCConversions, wantADC)
		}
		wantDAC := int64(la.Mapping.ActiveRows) * 8 * 8
		if stats.DACConversions != wantDAC {
			t.Fatalf("%v: executed %d DAC conversions, analytic %d", shape, stats.DACConversions, wantDAC)
		}
		if an := AnalyticExecStats(cfg(), la, w.PlaneCount()); an != stats {
			t.Fatalf("%v: AnalyticExecStats %+v, executed %+v", shape, an, stats)
		}
	}
}

func TestExecuteMVMShapeErrors(t *testing.T) {
	p := singleLayerPlan(t, 3, 4, 8, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	x := dnn.SyntheticInput(la.Layer, 1)
	in := quant.QuantizeInput(x)
	badW := quant.QuantizeWeights(dnn.SyntheticWeights(p.Model.Mappable()[0], 1))
	badW.Rows++ // corrupt shape
	if _, _, err := ExecuteMVM(cfg(), la, badW, in); err == nil {
		t.Fatal("wrong weight shape must error")
	}
	// A codes-only batch carries no digit slab for the popcount kernels.
	codes := quant.QuantizeBatchFlatCodesInto(nil, x, len(x), 1)
	if _, _, err := ExecuteMVMBatch(cfg(), la, w, codes); err == nil {
		t.Fatal("batch without a digit slab must error")
	}
	// The kernels stream every digit of an 8-bit code.
	narrow := cfg()
	narrow.InputBits = 4
	if _, _, err := ExecuteMVM(narrow, la, w, in); err == nil {
		t.Fatal("InputBits other than the quantizer's must error")
	}
	in.N++ // corrupt length
	if _, _, err := ExecuteMVM(cfg(), la, w, in); err == nil {
		t.Fatal("wrong input length must error")
	}
}

func TestResultString(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	r, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Fatal("empty result string")
	}
}

// Tile sharing must not change energy (same crossbars active) but must
// raise utilization and shrink area.
func TestSharingEffectOnMetrics(t *testing.T) {
	m := dnn.VGG16()
	st := accel.Homogeneous(16, xbar.Square(64))
	plain, _ := accel.BuildPlan(cfg(), m, st, false)
	shared, _ := accel.BuildPlan(cfg(), m, st, true)
	rp, err := Simulate(plain)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(shared)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Utilization < rp.Utilization {
		t.Fatalf("sharing reduced utilization %v → %v", rp.Utilization, rs.Utilization)
	}
	if rs.AreaUM2 > rp.AreaUM2 {
		t.Fatalf("sharing grew area %v → %v", rp.AreaUM2, rs.AreaUM2)
	}
	// Energy may shift slightly (fewer inter-tile hops) but never up.
	if rs.EnergyNJ > rp.EnergyNJ+1e-9 {
		t.Fatalf("sharing grew energy %v → %v", rp.EnergyNJ, rs.EnergyNJ)
	}
}
