package sim

import (
	"math"
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/repair"
	"autohet/internal/xbar"
)

// The batched grid kernel must be bit-identical, member for member, to B
// independent single-vector ExecuteMVM calls — for every mapping geometry
// and weight width — and its ExecStats must be exactly B times the
// single-vector (= analytic) stats.
func TestExecuteMVMBatchMatchesSingle(t *testing.T) {
	const B = 5
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		ins := make([]*quant.Input, B)
		for k := range ins {
			ins[k] = quant.QuantizeInput(dnn.SyntheticInput(l, int64(12+k)))
		}
		pb := quant.PackInputs(ins)
		for _, bits := range []int{1, 4, 8} {
			w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, 11), bits)
			got, gotStats, err := ExecuteMVMBatch(cfg(), la, w, pb)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			var sum ExecStats
			for k, in := range ins {
				want, wantStats, err := ExecuteMVM(cfg(), la, w, in)
				if err != nil {
					t.Fatalf("%v bits=%d member %d: %v", c, bits, k, err)
				}
				eqF64(t, "batched member", got[k*w.Cols:(k+1)*w.Cols], want)
				sum.Crossbars += wantStats.Crossbars
				sum.ADCConversions += wantStats.ADCConversions
				sum.DACConversions += wantStats.DACConversions
			}
			if gotStats != sum {
				t.Fatalf("%v bits=%d: batched stats %+v, B× single %+v", c, bits, gotStats, sum)
			}
		}
	}
}

// aggregateMVMRef is the single-vector form of packedAggregateMVMBatch:
// full-height popcounts per (plane, cycle, column) from the input's own
// digit words, with one aggregate read-noise sample per (plane, column).
func aggregateMVMRef(cfg hw.Config, pm *quant.PackedMatrix, w *quant.Matrix, in *quant.Input, fm *fault.Model, noise func() float64, out []float64) {
	noisy := fm != nil && fm.ReadNoiseSigma > 0
	aggSigma := math.Sqrt(aggregateNoiseVar(cfg))
	for _, p := range pm.Planes {
		shift := float64(int64(1) << uint(p.Bit))
		for j := range out {
			var sum int64
			for ib := 0; ib < cfg.InputBits; ib++ {
				sum += int64(p.ColSum(j, in.DigitWords[ib])) << uint(ib)
			}
			out[j] += shift * float64(sum)
			if noisy {
				out[j] += shift * aggSigma * noise()
			}
		}
	}
	applyCorrection(out, w, in)
}

// refMVM runs one patch through the prepared layer with the single-vector
// reference kernel of its mode — integerMVM, the aggregate sum above, or
// execPackedGrid + applyCorrection, each MVM keying its own noise stream —
// and dequantizes the result.
func refMVM(t *testing.T, le *layerExec, patch []float64, stats *InferenceStats) []float64 {
	t.Helper()
	in := quant.QuantizeInput(patch)
	if in.N != le.w.Rows {
		t.Fatal(lengthErr(in.N, le.w.Rows))
	}
	out := make([]float64, le.w.Cols)
	switch le.mode {
	case modeFast:
		out = integerMVM(le.w, in)
		stats.ADCConversions += le.fastADC
	case modeAggregate:
		aggregateMVMRef(le.cfg, le.pm, le.w, in, le.fm, le.fm.Noise(le.key), out)
		stats.ADCConversions += le.fastADC
	case modeBitExact, modeBitExactNoisy:
		var noise func() float64
		if le.mode == modeBitExactNoisy {
			noise = le.fm.Noise(le.key)
		}
		var es ExecStats
		execPackedGrid(le.cfg, le.la, le.pm, in, noise, out, &es)
		applyCorrection(out, le.w, in)
		stats.ADCConversions += es.ADCConversions
	}
	stats.MVMs++
	for j := range out {
		out[j] = le.w.ScaleFor(j) * in.Scale * out[j]
	}
	return out
}

// runScalarRef is the bit-exact oracle for the batched engine: the network
// run one sliding window at a time, sequentially, through refMVM.
func runScalarRef(t *testing.T, e *Engine, input *dnn.Tensor, opts InferenceOptions) ([]float64, InferenceStats) {
	t.Helper()
	m := e.p.Model
	var stats InferenceStats
	mappables := m.Mappable()
	last := mappables[len(mappables)-1]
	cur := input
	var flat []float64
	for _, l := range m.Layers {
		switch l.Kind {
		case dnn.Conv:
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := dnn.NewTensor(l.OutC, l.OutH, l.OutW)
			patch := make([]float64, cur.C*l.K*l.K)
			for idx := 0; idx < l.OutH*l.OutW; idx++ {
				oy, ox := idx/l.OutW, idx%l.OutW
				cur.PatchInto(patch, l, oy, ox)
				for c, v := range refMVM(t, le, patch, &stats) {
					out.Set(c, oy, ox, v)
				}
			}
			cur = out
			if l != last {
				dnn.ReLU(cur.Data)
			}
		case dnn.Pool:
			cur = dnn.PoolMaxRef(l, cur)
		case dnn.FC:
			if flat == nil {
				flat = cur.Flatten()
			}
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			flat = refMVM(t, le, flat, &stats)
			if l != last {
				dnn.ReLU(flat)
			}
		}
	}
	if flat == nil {
		flat = cur.Flatten()
	}
	return flat, stats
}

// batchedOptSets covers every kernel mode: fast integer, bit-exact,
// aggregate-noise faulted, bit-exact noisy, per-column scales, and the
// repaired fast + bit-exact paths.
func batchedOptSets() []InferenceOptions {
	stuck := &fault.Model{Seed: 3, StuckAtZero: 0.01, StuckAtOne: 0.005, ReadNoiseSigma: 0.2}
	return []InferenceOptions{
		{Seed: 2},
		{Seed: 2, BitExact: true},
		{Seed: 2, PerColumnScales: true, BitExact: true},
		{Seed: 2, Faults: stuck},
		{Seed: 2, BitExact: true, Faults: stuck},
		{Seed: 2, Faults: stuck, Repair: &repair.Policy{}},
		{Seed: 2, BitExact: true, Faults: stuck, Repair: &repair.Policy{}},
	}
}

// The batched engine must reproduce the scalar per-patch engine bit-exactly
// — outputs and MVM/ADC accounting — for every kernel mode (including the
// faulted, noisy, and repaired paths) and every kernel batch size.
func TestEngineBatchedMatchesScalarReference(t *testing.T) {
	p := parallelCNN(t)
	input := dnn.SyntheticTensor(3, 16, 16, 4)
	for _, opts := range batchedOptSets() {
		eng := NewEngine(p)
		want, wantStats := runScalarRef(t, eng, input, opts)
		for _, kb := range []int{1, 8, 32, DefaultKernelBatch} {
			outs, gotStats, err := eng.runBatch([]*dnn.Tensor{input}, opts, kb)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			got := outs[0]
			eqF64(t, "batched vs scalar", got, want)
			if gotStats.MVMs != wantStats.MVMs || gotStats.ADCConversions != wantStats.ADCConversions {
				t.Fatalf("%+v: batched stats %+v, scalar %+v", opts, gotStats, wantStats)
			}
			if gotStats.KernelBatches == 0 || gotStats.MaxKernelBatch < 1 {
				t.Fatalf("%+v: no kernel batches recorded: %+v", opts, gotStats)
			}
			if gotStats.MaxKernelBatch > kb {
				t.Fatalf("%+v: kernel batch %d exceeds cap %d", opts, gotStats.MaxKernelBatch, kb)
			}
		}
	}
}

// RunBatch of N inputs must equal N independent Runs, member for member,
// with additive MVM/ADC stats — members of a batch never mix.
func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	p := parallelCNN(t)
	inputs := []*dnn.Tensor{
		dnn.SyntheticTensor(3, 16, 16, 4),
		dnn.SyntheticTensor(3, 16, 16, 5),
		dnn.SyntheticTensor(3, 16, 16, 6),
	}
	for _, opts := range batchedOptSets() {
		eng := NewEngine(p)
		outs, batchStats, err := eng.RunBatch(inputs, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(outs) != len(inputs) {
			t.Fatalf("%+v: %d outputs for %d inputs", opts, len(outs), len(inputs))
		}
		var sum InferenceStats
		for i, input := range inputs {
			want, stats, err := eng.Run(input, opts)
			if err != nil {
				t.Fatalf("%+v input %d: %v", opts, i, err)
			}
			eqF64(t, "batch member", outs[i], want)
			sum.MVMs += stats.MVMs
			sum.ADCConversions += stats.ADCConversions
		}
		if batchStats.MVMs != sum.MVMs || batchStats.ADCConversions != sum.ADCConversions {
			t.Fatalf("%+v: batch stats %+v, sum of singles %+v", opts, batchStats, sum)
		}
	}
}

// With warm scratch, a whole kernel batch — patch slab fill, batch
// quantize/pack, batched kernel, dequantize — allocates nothing on the fast
// and bit-exact paths. This is the per-patch-allocation invariant behind
// allocs_per_patch in BENCH_mvm.json, now asserted at batch granularity.
func TestApplyBatchZeroAllocsWarm(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	l := p.Model.Mappable()[0]
	const B = 32
	patchLen := l.UnfoldedRows()
	eng := NewEngine(p)
	for _, opts := range []InferenceOptions{{Seed: 1}, {Seed: 1, BitExact: true}} {
		le, err := eng.prepareLayer(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.getScratch()
		flat := s.flatFor(B * patchLen)
		for k := 0; k < B; k++ {
			copy(flat[k*patchLen:(k+1)*patchLen], dnn.SyntheticInput(l, int64(k)))
		}
		var stats InferenceStats
		run := func() {
			s.pb = quant.QuantizeBatchFlatInto(s.pb, s.flatFor(B*patchLen), patchLen, B)
			out := s.outFor(B * le.w.Cols)
			le.applyBatch(s, out, &stats)
		}
		run() // warm the buffers
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("BitExact=%v: %v allocs per warm kernel batch, want 0", opts.BitExact, allocs)
		}
		eng.putScratch(s)
	}
}
