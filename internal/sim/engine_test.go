package sim

import (
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/repair"
	"autohet/internal/xbar"
)

// mvmShapeCases are the mapping geometries the kernel equality tests sweep:
// multi-crossbar grids, single crossbars, partial bands, multi-band FC-like
// layers, and split kernels.
var mvmShapeCases = []struct {
	k, inC, outC int
	shape        xbar.Shape
}{
	{3, 12, 128, xbar.Square(64)},  // Fig. 5, 2×2 grid
	{3, 12, 128, xbar.Square(128)}, // Fig. 5, single crossbar
	{3, 7, 40, xbar.Rect(36, 32)},  // rectangular, partial bands
	{1, 70, 50, xbar.Square(32)},   // FC-like, 3 bands
	{7, 3, 20, xbar.Square(32)},    // split kernel (49 rows > 32)
}

func eqF64(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", tag, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s col %d: packed %v scalar %v (must be ==, not close)", tag, j, got[j], want[j])
		}
	}
}

// The packed popcount kernel must be bit-identical to the byte-per-cell
// scalar reference — outputs and ExecStats — for every mapping geometry and
// every weight width 1..8, and both must match the analytic stats formula.
func TestPackedMatchesScalarAllShapesAndWidths(t *testing.T) {
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		for bits := 1; bits <= 8; bits++ {
			w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, 11), bits)
			got, gotStats, err := ExecuteMVM(cfg(), la, w, in)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			want, wantStats, err := ExecuteMVMScalar(cfg(), la, w, in)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			eqF64(t, "ideal", got, want)
			if gotStats != wantStats {
				t.Fatalf("%v bits=%d: packed stats %+v scalar %+v", c, bits, gotStats, wantStats)
			}
			if an := AnalyticExecStats(cfg(), la, w.PlaneCount()); gotStats != an {
				t.Fatalf("%v bits=%d: executed stats %+v analytic %+v", c, bits, gotStats, an)
			}
		}
	}
}

// The faulty packed kernel must be bit-identical to the scalar faulty
// reference — both with stuck-at faults alone and with read noise, whose
// samples the packed kernel draws in the exact same order.
func TestFaultyPackedMatchesScalar(t *testing.T) {
	models := []*fault.Model{
		{Seed: 5, StuckAtZero: 0.02, StuckAtOne: 0.01},
		{Seed: 5, StuckAtZero: 0.02, StuckAtOne: 0.01, ReadNoiseSigma: 0.3},
		{Seed: 9, ReadNoiseSigma: 0.5},
	}
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, 11))
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		for _, fm := range models {
			got, gotStats, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
			if err != nil {
				t.Fatalf("%v %+v: %v", c, fm, err)
			}
			want, wantStats, err := executeMVMFaultyScalar(cfg(), la, w, in, fm)
			if err != nil {
				t.Fatalf("%v %+v: %v", c, fm, err)
			}
			eqF64(t, "faulty", got, want)
			if gotStats != wantStats {
				t.Fatalf("%v %+v: stats %+v vs %+v", c, fm, gotStats, wantStats)
			}
		}
	}
}

// The repaired bit-serial path must be bit-identical to a scalar evaluation
// of the same repaired planes with the same noise stream.
func TestRepairedPackedMatchesScalar(t *testing.T) {
	fm := &fault.Model{Seed: 7, StuckAtZero: 0.02, StuckAtOne: 0.01, ReadNoiseSigma: 0.2}
	pol := repair.Policy{Provision: repair.Provision{SpareCols: 2}}
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, 11))
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		rl, err := RepairLayer(la, w, fm, pol)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got, gotStats := execRepairedBitSerial(cfg(), la, rl, w, in, fm)
		// Scalar reference: the same repaired byte planes through the noisy
		// byte-loop kernel with an identically keyed noise stream.
		noise := fm.Noise(int64(la.Layer.Index + 1))
		want := make([]float64, l.UnfoldedCols())
		var wantStats ExecStats
		forEachCrossbar(la, func(r0, r1, c0, c1 int) {
			wantStats.Crossbars++
			execCrossbarNoisyScalar(cfg(), rl.Planes, in, r0, r1, c0, c1, want, noise, &wantStats)
		})
		applyCorrection(want, w, in)
		eqF64(t, "repaired", got, want)
		if gotStats != wantStats {
			t.Fatalf("%v: stats %+v vs %+v", c, gotStats, wantStats)
		}
	}
}

// parallelCNN is a model whose second conv is 64 windows of a 216×32
// MVM, 442k MACs — above minParallelMACs, so Engine.Run streams its
// patches across the worker pool (the 166k-MAC first conv stays serial).
func parallelCNN(t testing.TB) *accel.Plan {
	t.Helper()
	m, err := dnn.NewModel("par-cnn", 16, 16, 3, []*dnn.Layer{
		{Name: "c1", Kind: dnn.Conv, K: 3, InC: 3, OutC: 24, Stride: 1, Pad: 1},
		{Name: "p1", Kind: dnn.Pool, K: 2, Stride: 2},
		{Name: "c2", Kind: dnn.Conv, K: 3, InC: 24, OutC: 32, Stride: 1, Pad: 1},
		{Name: "f1", Kind: dnn.FC, K: 1, InC: 32 * 8 * 8, OutC: 10, Stride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(64)), true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParallelWorthCountsMACs pins the worker-pool cutoff to work, not
// window count: a few windows of a big kernel fan out, many windows of a
// tiny one stay serial.
func TestParallelWorthCountsMACs(t *testing.T) {
	cases := []struct {
		name             string
		mvms, rows, cols int
		want             bool
	}{
		{"VGG16 conv5_x at batch 1: 4 windows of 4608x512", 4, 4608, 512, true},
		{"VGG16 conv4_x at batch 1: 16 windows of 2304x512", 16, 2304, 512, true},
		{"parallelCNN c2: 64 windows of 216x32", 64, 216, 32, true},
		{"parallelCNN c1: 256 windows of 27x24", 256, 27, 24, false},
		{"tiny conv: 64 windows of 27x8", 64, 27, 8, false},
		{"exactly at the cutoff", 1, minParallelMACs, 1, true},
		{"one MAC short", 1, minParallelMACs - 1, 1, false},
		{"past 2³¹ MACs (32-bit int)", 1 << 16, 1 << 10, 1 << 6, true},
	}
	for _, c := range cases {
		if got := parallelWorth(c.mvms, c.rows, c.cols); got != c.want {
			t.Errorf("%s: parallelWorth(%d, %d, %d) = %v, want %v", c.name, c.mvms, c.rows, c.cols, got, c.want)
		}
	}
}

// Parallel patch streaming must be deterministic: repeated runs — same
// engine, fresh engines, and the transient RunInference wrapper — produce
// `==`-identical outputs and stats, for the fast, bit-exact, faulty, and
// noisy option sets.
func TestEngineParallelDeterministic(t *testing.T) {
	p := parallelCNN(t)
	input := dnn.SyntheticTensor(3, 16, 16, 4)
	optSets := []InferenceOptions{
		{Seed: 2},
		{Seed: 2, BitExact: true},
		{Seed: 2, Faults: &fault.Model{Seed: 3, StuckAtZero: 0.01, ReadNoiseSigma: 0.2}},
		{Seed: 2, BitExact: true, Faults: &fault.Model{Seed: 3, StuckAtZero: 0.01, ReadNoiseSigma: 0.2}},
	}
	for _, opts := range optSets {
		eng := NewEngine(p)
		ref, refStats, err := eng.Run(input, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		again, againStats, err := eng.Run(input, opts) // warm caches
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		eqF64(t, "warm rerun", again, ref)
		fresh, freshStats, err := RunInference(p, input, opts) // cold engine
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		eqF64(t, "fresh engine", fresh, ref)
		if refStats != againStats || refStats != freshStats {
			t.Fatalf("%+v: stats diverge %+v / %+v / %+v", opts, refStats, againStats, freshStats)
		}
		if refStats.MVMs == 0 || refStats.ADCConversions == 0 {
			t.Fatalf("%+v: empty stats %+v", opts, refStats)
		}
	}
}

// The engine memoizes per-layer derivations: repeated prepareLayer calls must
// return the same weight matrix and plane stack pointers, including faulted
// and repaired stacks.
func TestEngineMemoizesDerivations(t *testing.T) {
	p := parallelCNN(t)
	l := p.Model.Mappable()[0]
	eng := NewEngine(p)
	for _, opts := range []InferenceOptions{
		{Seed: 2, BitExact: true},
		{Seed: 2, BitExact: true, Faults: &fault.Model{Seed: 3, StuckAtZero: 0.01}},
		{Seed: 2, Faults: &fault.Model{Seed: 3, StuckAtZero: 0.01}, Repair: &repair.Policy{}},
	} {
		a, err := eng.prepareLayer(l, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		b, err := eng.prepareLayer(l, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if a.w != b.w {
			t.Fatalf("%+v: weights re-quantized", opts)
		}
		if a.pm == nil || a.pm != b.pm {
			t.Fatalf("%+v: planes re-packed (%p vs %p)", opts, a.pm, b.pm)
		}
	}
	// Different seeds must NOT share weights.
	a, _ := eng.prepareLayer(l, InferenceOptions{Seed: 2, BitExact: true})
	c, err := eng.prepareLayer(l, InferenceOptions{Seed: 9, BitExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.w == c.w {
		t.Fatal("distinct seeds share a weight matrix")
	}
}

// An engine held across inferences reuses its caches: the second run of the
// same options must not re-quantize, re-slice, or re-pack anything, so its
// allocation count stays far below the first run's.
func TestEngineRunAllocsBounded(t *testing.T) {
	p := parallelCNN(t)
	input := dnn.SyntheticTensor(3, 16, 16, 4)
	eng := NewEngine(p)
	opts := InferenceOptions{Seed: 2, BitExact: true}
	if _, _, err := eng.Run(input, opts); err != nil {
		t.Fatal(err)
	}
	patches := 0
	for _, l := range p.Model.Mappable() {
		patches += l.OutputPositions()
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := eng.Run(input, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Warm runs allocate per layer and per worker (output tensors, worker
	// scratch), never per patch.
	if allocs > float64(patches) {
		t.Fatalf("warm run allocates %v (> %d patches); per-patch scratch is leaking", allocs, patches)
	}
}
