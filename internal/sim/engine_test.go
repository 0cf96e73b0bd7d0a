package sim

import (
	"math"
	"math/rand"
	"runtime"
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
// samples the packed kernel draws in the exact same order — for every
// mapping geometry and 1-, 4- and 8-bit weights.
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
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		for _, bits := range []int{1, 4, 8} {
			w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, 11), bits)
			for _, fm := range models {
				got, gotStats, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
				if err != nil {
					t.Fatalf("%v bits=%d %+v: %v", c, bits, fm, err)
				}
				want, wantStats, err := executeMVMFaultyScalar(cfg(), la, w, in, fm)
				if err != nil {
					t.Fatalf("%v bits=%d %+v: %v", c, bits, fm, err)
				}
				eqF64(t, "faulty", got, want)
				if gotStats != wantStats {
					t.Fatalf("%v bits=%d %+v: stats %+v vs %+v", c, bits, fm, gotStats, wantStats)
				}
			}
		}
	}
}

// The repaired bit-serial path (ExecuteMVMRepaired) must be bit-identical to
// a byte-per-cell evaluation of the same repaired byte planes with the same
// noise stream, outputs and stats, for 1-, 4- and 8-bit weights.
func TestRepairedPackedMatchesScalar(t *testing.T) {
	fm := &fault.Model{Seed: 7, StuckAtZero: 0.02, StuckAtOne: 0.01, ReadNoiseSigma: 0.2}
	pol := repair.Policy{Provision: repair.Provision{SpareCols: 2}}
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		in := quant.QuantizeInput(dnn.SyntheticInput(l, 12))
		for _, bits := range []int{1, 4, 8} {
			w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, 11), bits)
			got, gotStats, _, err := ExecuteMVMRepaired(cfg(), la, w, in, fm, pol)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			rl, err := RepairLayer(la, w, fm, pol)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			// Scalar reference: the same repaired byte planes through the
			// noisy byte-loop kernel with an identically keyed noise stream.
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
				t.Fatalf("%v bits=%d: stats %+v vs %+v", c, bits, gotStats, wantStats)
			}
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
		a, err := prepareNew(eng, l, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		b, err := prepareNew(eng, l, opts)
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
	a, _ := prepareNew(eng, l, InferenceOptions{Seed: 2, BitExact: true})
	c, err := prepareNew(eng, l, InferenceOptions{Seed: 9, BitExact: true})
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

// The kernel epilogue applies the ReLU as it writes each output, in place
// of a dnn.ReLU pass over the finished layer: the two must agree bit for
// bit, −0 and NaN outputs included, in the fast mode (fused into the
// blocked kernel's writes) and the bit-exact mode (applied after the
// offset-binary correction). Rows 0–3 of the input are subnormal, so their
// windows quantize under a scale whose product with the weight scale
// underflows to +0 and negative sums come out −0; windows holding +Inf
// quantize under scale +Inf and come out NaN, and in bit-exact mode the
// NaN pixel's code sum turns its windows NaN too.
func TestConvScatterReLUMatchesDNNReLU(t *testing.T) {
	p := singleLayerPlan(t, 3, 4, 16, xbar.Square(64))
	l := p.Model.Mappable()[0]
	rng := rand.New(rand.NewSource(1))
	in := dnn.NewTensor(4, 8, 8)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
		if i%64 < 32 {
			in.Data[i] = 1e-321 * rng.Float64()
		}
	}
	in.Set(1, 6, 2, math.Inf(1))
	in.Set(2, 5, 6, math.NaN())
	x := channelsLastActs([]*dnn.Tensor{in})
	cmax := make([]float64, x.h*x.w)
	for _, opts := range []InferenceOptions{{Seed: 1}, {Seed: 1, BitExact: true}} {
		e := NewEngine(p)
		le, err := prepareNew(e, l, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := l.OutC * l.OutH * l.OutW
		raw, fused := make([]float64, n), make([]float64, n)
		var st InferenceStats
		for _, run := range []struct {
			out  []float64
			relu bool
		}{{raw, false}, {fused, true}} {
			le.relu = run.relu
			if err := e.streamPatchBatches(le, l, x, cmax, run.out, DefaultKernelBatch, &st); err != nil {
				t.Fatal(err)
			}
		}
		var negZero, nan, neg int
		for _, v := range raw {
			switch {
			case math.IsNaN(v):
				nan++
			case v == 0 && math.Signbit(v):
				negZero++
			case v < 0:
				neg++
			}
		}
		if negZero == 0 || nan == 0 || neg == 0 {
			t.Fatalf("%+v: raw outputs hold %d −0, %d NaN, %d negatives; the test needs each", opts, negZero, nan, neg)
		}
		want := dnn.ReLU(append([]float64(nil), raw...))
		for i, w := range want {
			if g := fused[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%+v: out[%d] = %v (%#x), dnn.ReLU gives %v (%#x)", opts, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// poolBatch pools one output row per chunk on the worker pool — rows of
// one input on several workers at batch 1, ragged when the workers do not
// divide the rows — and must return exactly what dnn.PoolMaxRef returns per
// input, compared by bits after transposing the channels-last result back.
// PoolMaxRef starts each window at its first pixel and only v > best
// replaces it, so a window whose first pixel is −0 followed by +0 keeps
// −0, the reverse keeps +0, and a leading NaN stays NaN; every input
// plants those three windows at output pixel (0, 0) in channels 0–2.
func TestPoolBatchMatchesPoolMaxRef(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := NewEngine(parallelCNN(t))
	rng := rand.New(rand.NewSource(2))
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), negZero, 0, math.Inf(-1)}
	for _, c := range []struct{ batch, C, H, K, S int }{
		{1, 64, 24, 2, 2}, // parallel, 12 rows on 4 workers
		{1, 10, 48, 3, 2}, // parallel, 23 rows on 4 workers
		{3, 10, 24, 3, 2}, // parallel, 3 inputs of 11 rows
		{5, 7, 24, 2, 2},  // parallel, 5 inputs of 12 rows
		{1, 3, 8, 2, 2},   // serial, 4 rows
	} {
		out := (c.H-c.K)/c.S + 1
		l := &dnn.Layer{Name: "p", Kind: dnn.Pool, K: c.K, Stride: c.S, OutH: out, OutW: out}
		curs := make([]*dnn.Tensor, c.batch)
		for i := range curs {
			curs[i] = dnn.NewTensor(c.C, c.H, c.H)
			for j := range curs[i].Data {
				curs[i].Data[j] = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					curs[i].Data[j] = specials[rng.Intn(len(specials))]
				}
			}
			for y := 0; y < c.K; y++ {
				for x := 0; x < c.K; x++ {
					curs[i].Set(0, y, x, 0)
					curs[i].Set(1, y, x, negZero)
				}
			}
			curs[i].Set(0, 0, 0, negZero)
			curs[i].Set(1, 0, 0, 0)
			curs[i].Set(2, 0, 0, math.NaN())
		}
		in := channelsLastActs(curs)
		got := make([]float64, c.batch*c.C*out*out)
		var st InferenceStats
		e.poolBatch(l, in, got, &st)
		for i, x := range curs {
			want := dnn.PoolMaxRef(l, x)
			if want.H != out || want.W != out {
				t.Fatalf("%+v: PoolMaxRef gives %dx%d, layer says %dx%d", c, want.H, want.W, out, out)
			}
			if v := want.At(0, 0, 0); v != 0 || !math.Signbit(v) {
				t.Fatalf("%+v input %d: −0 then +0 pools to %v; the test needs −0", c, i, v)
			}
			if v := want.At(1, 0, 0); v != 0 || math.Signbit(v) {
				t.Fatalf("%+v input %d: +0 then −0 pools to %v; the test needs +0", c, i, v)
			}
			if v := want.At(2, 0, 0); !math.IsNaN(v) {
				t.Fatalf("%+v input %d: a leading NaN pools to %v; the test needs NaN", c, i, v)
			}
			size := c.C * out * out
			back := make([]float64, size)
			transpose(back, got[i*size:(i+1)*size], out*out)
			for j, w := range want.Data {
				if g := back[j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%+v input %d: out[%d] = %v, want %v", c, i, j, g, w)
				}
			}
		}
	}
}

// A warm RunBatch writes every layer into the engine's reused activation
// slabs: batch 8 on parallelCNN and on AlexNet (28×28, whose fc6 flattens
// a 3×3×256 map) allocates fewer bytes than the batch's smallest conv or
// pool output, so no per-layer activation tensor is left.
func TestRunBatchReusesActivationSlabs(t *testing.T) {
	alex, err := accel.BuildPlan(hw.DefaultConfig(), dnn.AlexNet(), accel.Homogeneous(dnn.AlexNet().NumMappable(), xbar.Square(128)), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*accel.Plan{parallelCNN(t), alex} {
		m := p.Model
		const B = 8
		inputs := make([]*dnn.Tensor, B)
		for i := range inputs {
			inputs[i] = dnn.SyntheticTensor(m.InC, m.InH, m.InW, int64(i))
		}
		smallest := math.MaxInt
		for _, l := range m.Layers {
			switch l.Kind {
			case dnn.Conv:
				smallest = min(smallest, B*l.OutC*l.OutH*l.OutW*8)
			case dnn.Pool:
				smallest = min(smallest, B*l.InC*l.OutH*l.OutW*8)
			}
		}
		eng := NewEngine(p)
		opts := InferenceOptions{Seed: 2}
		for range 2 { // warm the caches, the scratch and the slabs
			if _, _, err := eng.RunBatch(inputs, opts); err != nil {
				t.Fatal(err)
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, _, err := eng.RunBatch(inputs, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got >= uint64(smallest) {
			t.Fatalf("%s: warm batch-%d RunBatch allocated %d B, not under the smallest conv or pool output (%d B)", m.Name, B, got, smallest)
		} else {
			t.Logf("%s: warm batch-%d RunBatch allocated %d B (smallest conv or pool output %d B)", m.Name, B, got, smallest)
		}
	}
}
