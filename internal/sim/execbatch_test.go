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
// independent byte-per-cell ExecuteMVMScalar calls — for every mapping
// geometry and weight width — and its ExecStats must be exactly the sum of
// the scalar reference's per-crossbar stats.
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
				want, wantStats, err := ExecuteMVMScalar(cfg(), la, w, in)
				if err != nil {
					t.Fatalf("%v bits=%d member %d: %v", c, bits, k, err)
				}
				eqF64(t, "batched member", got[k*w.Cols:(k+1)*w.Cols], want)
				sum.Crossbars += wantStats.Crossbars
				sum.ADCConversions += wantStats.ADCConversions
				sum.DACConversions += wantStats.DACConversions
			}
			if gotStats != sum {
				t.Fatalf("%v bits=%d: batched stats %+v, B× scalar %+v", c, bits, gotStats, sum)
			}
		}
	}
}

// refPlanes returns the byte-per-cell plane stack the prepared layer
// serves — ideal, faulted or repaired — built from byte planes, not from
// the packed stack the batched kernels read.
func refPlanes(t *testing.T, e *Engine, le *layerExec, opts InferenceOptions) []*quant.BitPlane {
	t.Helper()
	switch {
	case opts.Repair != nil && opts.Faults.CellFaultRate() > 0:
		rl, err := e.repairFor(le.la, le.w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rl.Planes
	case opts.Faults.CellFaultRate() > 0:
		return opts.Faults.ApplyStuckAt(le.w.Planes(), le.key)
	}
	return le.w.Planes()
}

// aggregateMVMRef is the byte-per-cell form of packedAggregateMVMBatch: the
// integer sum Σ_i bit·u_i per (plane, column), with one aggregate read-noise
// sample per (plane, column).
func aggregateMVMRef(cfg hw.Config, planes []*quant.BitPlane, w *quant.Matrix, in *quant.Input, fm *fault.Model, noise func() float64, out []float64) {
	noisy := fm != nil && fm.ReadNoiseSigma > 0
	aggSigma := math.Sqrt(aggregateNoiseVar(cfg))
	for _, p := range planes {
		shift := float64(int64(1) << uint(p.Bit))
		for j := range out {
			var sum int64
			for i, u := range in.U {
				sum += int64(p.Bits[i*p.Cols+j]) * int64(u)
			}
			out[j] += shift * float64(sum)
			if noisy {
				out[j] += shift * aggSigma * noise()
			}
		}
	}
	applyCorrection(out, w, in)
}

// Each member of a noisy batch draws from its own stream: with a distinct
// seed per member, the bit-serial noisy kernel matches the byte-per-cell
// noisy reads and the aggregate kernel matches aggregateMVMRef, member by
// member, each reference on a fresh copy of that member's stream.
func TestNoisyBatchMembersDrawOwnStreams(t *testing.T) {
	const B = 3
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		w := quant.QuantizeWeights(dnn.SyntheticWeights(l, 11))
		planes := w.Planes()
		ins := make([]*quant.Input, B)
		fms := make([]*fault.Model, B)
		for k := range ins {
			ins[k] = quant.QuantizeInput(dnn.SyntheticInput(l, int64(12+k)))
			fms[k] = &fault.Model{Seed: int64(20 + k), ReadNoiseSigma: 0.3}
		}
		pb := quant.PackInputs(ins)
		streams := func() []func() float64 {
			s := make([]func() float64, B)
			for k := range s {
				s[k] = fms[k].Noise(1)
			}
			return s
		}
		bitSerial := make([]float64, B*w.Cols)
		var stats ExecStats
		execPackedGridBatchNoisy(cfg(), la, w.Packed(), pb, streams(), make([]int64, B), bitSerial, w.Cols, &stats)
		applyCorrectionBatch(bitSerial, w, pb)
		aggregate := make([]float64, B*w.Cols)
		packedAggregateMVMBatch(cfg(), w.Packed(), w, pb, fms[0], streams(), make([]int64, B), aggregate)
		for k, in := range ins {
			want := make([]float64, w.Cols)
			noise := fms[k].Noise(1)
			var es ExecStats
			forEachCrossbar(la, func(r0, r1, c0, c1 int) {
				execCrossbarNoisyScalar(cfg(), planes, in, r0, r1, c0, c1, want, noise, &es)
			})
			applyCorrection(want, w, in)
			eqF64(t, "bit-serial noisy member", bitSerial[k*w.Cols:(k+1)*w.Cols], want)
			wantAgg := make([]float64, w.Cols)
			aggregateMVMRef(cfg(), planes, w, in, fms[k], fms[k].Noise(1), wantAgg)
			eqF64(t, "aggregate member", aggregate[k*w.Cols:(k+1)*w.Cols], wantAgg)
		}
	}
}

// refMVM runs one patch through the prepared layer with the single-vector
// reference of its mode over the byte planes it serves — integerMVM, the
// aggregate sum above, or the byte-per-cell crossbar reads, each MVM keying
// its own noise stream — and dequantizes the result.
func refMVM(t *testing.T, le *layerExec, planes []*quant.BitPlane, patch []float64, stats *InferenceStats) []float64 {
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
		aggregateMVMRef(le.cfg, planes, le.w, in, le.fm, le.fm.Noise(le.key), out)
		stats.ADCConversions += le.fastADC
	case modeBitExact, modeBitExactNoisy:
		noise := le.fm.Noise(le.key)
		var es ExecStats
		forEachCrossbar(le.la, func(r0, r1, c0, c1 int) {
			es.Crossbars++
			if le.mode == modeBitExact {
				execCrossbarScalar(le.cfg, planes, in, r0, r1, c0, c1, out, &es)
			} else {
				execCrossbarNoisyScalar(le.cfg, planes, in, r0, r1, c0, c1, out, noise, &es)
			}
		})
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
// run one sliding window at a time, sequentially, through refMVM over the
// byte planes each layer serves.
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
			planes := refPlanes(t, e, le, opts)
			out := dnn.NewTensor(l.OutC, l.OutH, l.OutW)
			patch := make([]float64, cur.C*l.K*l.K)
			for idx := 0; idx < l.OutH*l.OutW; idx++ {
				oy, ox := idx/l.OutW, idx%l.OutW
				cur.PatchInto(patch, l, oy, ox)
				for c, v := range refMVM(t, le, planes, patch, &stats) {
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
			flat = refMVM(t, le, refPlanes(t, e, le, opts), flat, &stats)
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

// With warm scratch, a whole kernel batch — fused window quantize/pack
// from the input tensor, batched kernel, dequantize — allocates nothing on
// the fast and bit-exact paths. This is the per-patch-allocation invariant
// behind allocs_per_patch in BENCH_mvm.json, now asserted at batch
// granularity.
func TestApplyBatchZeroAllocsWarm(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	l := p.Model.Mappable()[0]
	const B = 32
	in := []*dnn.Tensor{dnn.SyntheticTensor(l.InC, l.InH, l.InW, 1)}
	cmax := channelMaxMap(in[0])
	eng := NewEngine(p)
	for _, opts := range []InferenceOptions{{Seed: 1}, {Seed: 1, BitExact: true}} {
		le, err := eng.prepareLayer(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.getScratch()
		var stats InferenceStats
		run := func() {
			quantizeConvBatch(s.pb, l, in, cmax, 0, B, le.digits())
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
