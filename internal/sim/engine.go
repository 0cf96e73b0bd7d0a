package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/hw"
	"autohet/internal/quant"
	"autohet/internal/repair"
)

// Engine serves repeated functional inferences over one plan. It memoizes
// every per-layer derivation the per-patch loop used to redo — quantized
// weights per (seed, per-column) choice, packed bit planes (on the matrices
// themselves), stuck-at-faulted packed planes per fault model, and
// detect-and-repair passes per (fault model, policy) — and streams
// independent conv patches through a bounded worker pool. Results are
// bit-identical to the one-shot RunInference path (which is now a thin
// wrapper over a transient Engine): patches write disjoint output cells,
// each MVM's noise stream is keyed per layer exactly as before, and stats
// are aggregated race-free. Safe for concurrent use.
type Engine struct {
	p *accel.Plan

	mu       sync.Mutex
	weights  map[weightKey][]*quant.Matrix
	faulted  map[faultKey]*quant.PackedMatrix
	repaired map[repairKey]*RepairedLayer

	// scratchMu guards a free list of batch scratch buffers reused across
	// chunks, layers, and inferences — a plain list rather than sync.Pool so
	// the warm path's zero-allocation invariant cannot be voided by a GC
	// cycle emptying the pool mid-measurement.
	scratchMu   sync.Mutex
	scratchFree []*batchScratch
}

type weightKey struct {
	seed   int64
	perCol bool
}

type faultKey struct {
	layer int
	model fault.Model
}

type repairKey struct {
	layer  int
	model  fault.Model
	policy repair.Policy
}

// NewEngine binds an engine to a plan.
func NewEngine(p *accel.Plan) *Engine {
	return &Engine{
		p:        p,
		weights:  map[weightKey][]*quant.Matrix{},
		faulted:  map[faultKey]*quant.PackedMatrix{},
		repaired: map[repairKey]*RepairedLayer{},
	}
}

// minParallelMACs is the layer work below which runChunks stays serial:
// 2¹⁸ MACs is ~10 µs of kernel, about five times the ~2 µs it takes to
// start and join a two-worker pool.
const minParallelMACs = 1 << 18

// parallelWorth reports whether a layer of mvms MVMs against a rows×cols
// weight matrix carries enough work to fan out across the worker pool.
// It counts MACs, not windows: VGG16's batch-1 conv5 layers have only four
// windows, but each is a 4608×512 MVM.
func parallelWorth(mvms, rows, cols int) bool {
	return int64(mvms)*int64(rows)*int64(cols) >= minParallelMACs
}

// DefaultKernelBatch is the kernel batch size RunBatch uses: big enough that
// the batched popcount kernels amortize each weight-word load ~32×8 ways,
// small enough that every AlexNet conv layer still splits into more chunks
// than typical core counts.
const DefaultKernelBatch = 32

// getScratch pops a warm batch scratch off the engine's free list (or
// allocates the first time). putScratch returns it.
func (e *Engine) getScratch() *batchScratch {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	if n := len(e.scratchFree); n > 0 {
		s := e.scratchFree[n-1]
		e.scratchFree = e.scratchFree[:n-1]
		return s
	}
	return &batchScratch{pb: &quant.PackedBatch{}}
}

func (e *Engine) putScratch(s *batchScratch) {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	e.scratchFree = append(e.scratchFree, s)
}

// weightsFor returns the layer's quantized weight matrix under opts,
// memoized across calls and inferences.
func (e *Engine) weightsFor(l *dnn.Layer, opts InferenceOptions) *quant.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := weightKey{seed: opts.Seed, perCol: opts.PerColumnScales}
	qw := e.weights[k]
	if qw == nil {
		qw = make([]*quant.Matrix, len(e.p.Layers))
		e.weights[k] = qw
	}
	if qw[l.Index] == nil {
		simWeightsMiss.Inc()
		start := time.Now()
		bits := e.p.Layers[l.Index].WeightBits
		if bits < 1 {
			bits = e.p.Cfg.WeightBits
		}
		raw := dnn.SyntheticWeights(l, opts.Seed)
		if opts.PerColumnScales {
			qw[l.Index] = quant.QuantizeWeightsPerColumn(raw, bits)
		} else {
			qw[l.Index] = quant.QuantizeWeightsN(raw, bits)
		}
		simStageQuantize.AddSince(start)
	} else {
		simWeightsHit.Inc()
	}
	return qw[l.Index]
}

// faultedFor returns the layer's packed plane stack under the fault model's
// stuck-at map, memoized — the fault map is deterministic in (Seed, layer),
// so one injection pass serves every patch of every inference.
func (e *Engine) faultedFor(la *accel.LayerAlloc, w *quant.Matrix, fm *fault.Model) *quant.PackedMatrix {
	if fm.CellFaultRate() == 0 {
		return packedTimed(w)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := faultKey{layer: la.Layer.Index, model: *fm}
	if pm, ok := e.faulted[k]; ok {
		simFaultedHit.Inc()
		return pm
	}
	simFaultedMiss.Inc()
	start := time.Now()
	planes := fm.ApplyStuckAt(w.Planes(), int64(la.Layer.Index+1))
	simStageFault.AddSince(start)
	start = time.Now()
	pm := quant.PackPlanes(planes)
	simStagePack.AddSince(start)
	e.faulted[k] = pm
	return pm
}

// repairFor resolves the effective policy (plan spares when the policy
// provisions none) and returns the layer's repaired planes, memoized.
func (e *Engine) repairFor(la *accel.LayerAlloc, w *quant.Matrix, opts InferenceOptions) (*RepairedLayer, error) {
	pol := *opts.Repair
	if pol.Provision.Zero() {
		pol.Provision = e.p.RepairBudget(la)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := repairKey{layer: la.Layer.Index, model: *opts.Faults, policy: pol}
	if rl, ok := e.repaired[k]; ok {
		simRepairedHit.Inc()
		return rl, nil
	}
	simRepairedMiss.Inc()
	start := time.Now()
	rl, err := RepairLayer(la, w, opts.Faults, pol)
	if err != nil {
		return nil, err
	}
	simStageRepair.AddSince(start)
	e.repaired[k] = rl
	return rl, nil
}

// execMode selects which kernel one layer's MVMs run through. The mode
// split mirrors the option switch the per-patch mvm dispatcher used to
// re-evaluate for every sliding-window position.
type execMode int

const (
	modeFast          execMode = iota // int64-blocked integer MVM
	modeAggregate                     // packed planes + aggregate noise (faulty/repaired fast)
	modeBitExact                      // packed bit-serial pipeline, ideal planes
	modeBitExactNoisy                 // packed bit-serial pipeline + per-conversion noise
)

// layerExec is one layer's resolved execution state: every per-layer
// derivation done once, shared read-only by all patch workers.
type layerExec struct {
	cfg     hw.Config
	la      *accel.LayerAlloc
	w       *quant.Matrix
	mode    execMode
	pm      *quant.PackedMatrix  // planes served (ideal, faulted, or repaired)
	bw      *quant.BlockedMatrix // AVX2 blocked packing, preferred fast kernel (nil → scalar)
	fm      *fault.Model
	key     int64
	fastADC int64 // analytic ADC conversions per MVM on the fast paths
}

// prepareLayer resolves a layer's weights, planes, repair pass, and kernel
// mode for one inference's options.
func (e *Engine) prepareLayer(l *dnn.Layer, opts InferenceOptions) (*layerExec, error) {
	la := e.p.Layers[l.Index]
	w := e.weightsFor(l, opts)
	le := &layerExec{cfg: e.p.Cfg, la: la, w: w, fm: opts.Faults, key: int64(l.Index + 1)}
	le.fastADC = int64(la.Mapping.ActiveCols) * int64(w.PlaneCount()) * int64(e.p.Cfg.InputBits)
	switch {
	case opts.Repair != nil && opts.Faults.CellFaultRate() > 0:
		rl, err := e.repairFor(la, w, opts)
		if err != nil {
			return nil, err
		}
		le.pm = rl.Packed
		if opts.BitExact {
			le.mode = modeBitExactNoisy
		} else {
			le.mode = modeAggregate
		}
	case !opts.Faults.Zero():
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
		le.pm = e.faultedFor(la, w, opts.Faults)
		if opts.BitExact {
			le.mode = modeBitExactNoisy
		} else {
			le.mode = modeAggregate
		}
	case opts.BitExact:
		le.pm = packedTimed(w)
		le.mode = modeBitExact
	default:
		le.mode = modeFast
		le.bw = blockedTimed(w)
	}
	return le, nil
}

// packedTimed bills the matrix's pack step to the pack stage counter.
// Matrix.Packed memoizes, so warm calls contribute only the clock reads —
// and packedTimed runs once per layer per inference, never per patch.
func packedTimed(w *quant.Matrix) *quant.PackedMatrix {
	start := time.Now()
	pm := w.Packed()
	simStagePack.AddSince(start)
	return pm
}

// blockedTimed bills the AVX2 blocked packing (memoized on the matrix; nil
// when the CPU lacks AVX2 or the shape doesn't fit) to the pack stage.
func blockedTimed(w *quant.Matrix) *quant.BlockedMatrix {
	start := time.Now()
	bw := w.Blocked()
	simStagePack.AddSince(start)
	return bw
}

// batchScratch is one worker's reusable batched buffers: the packed
// quantized batch, the member-major output accumulator, the kernel's int64
// scratch, per-member noise streams, and — on the scratch a conv layer
// holds for its inputs — the channel-max maps of the fused input path.
// With it, a warm kernel batch allocates nothing on the ideal paths.
type batchScratch struct {
	pb    *quant.PackedBatch
	out   []float64
	acc   []int64
	u16   []uint16
	noise []func() float64
	cmax  []float64
}

func (s *batchScratch) cmaxFor(n int) []float64 {
	if cap(s.cmax) < n {
		s.cmax = make([]float64, n)
	}
	return s.cmax[:n]
}

func (s *batchScratch) outFor(n int) []float64 {
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	s.out = s.out[:n]
	return s.out
}

func (s *batchScratch) accFor(n int) []int64 {
	if cap(s.acc) < n {
		s.acc = make([]int64, n)
	}
	return s.acc[:n]
}

func (s *batchScratch) u16For(n int) []uint16 {
	if cap(s.u16) < n {
		s.u16 = make([]uint16, n)
	}
	return s.u16[:n]
}

// noiseFor returns b per-member read-noise streams, each a fresh stream
// keyed by the layer — so member k's draws are bit-identical to running its
// MVM alone.
func (s *batchScratch) noiseFor(fm *fault.Model, key int64, b int) []func() float64 {
	if cap(s.noise) < b {
		s.noise = make([]func() float64, b)
	}
	s.noise = s.noise[:b]
	for k := range s.noise {
		s.noise[k] = fm.Noise(key)
	}
	return s.noise
}

// digits reports whether the layer's kernel reads the bit-serial digit
// slab. The fast mode's byte-code kernels (blocked/scalar) never do, so
// packing it — the single largest non-kernel cost per batch — is skipped
// there; every bit-serial mode gets the full slab.
func (le *layerExec) digits() bool { return le.mode != modeFast }

// applyBatch runs the prepared layer's kernel over the batch packed in
// s.pb, writing dequantized member-major outputs into out (length B·Cols,
// overwritten). Shape agreement is the caller's responsibility (checked
// once per layer, not per batch).
func (le *layerExec) applyBatch(s *batchScratch, out []float64, stats *InferenceStats) {
	pb := s.pb
	B := pb.B
	cols := le.w.Cols
	clear(out)
	switch le.mode {
	case modeFast:
		if le.bw != nil {
			// Signed product directly — no offset correction term.
			le.bw.MulBatch(pb, out, s.u16For(B*pb.N))
		} else {
			integerMVMBatch(out, s.accFor(cols), le.w, pb)
		}
		stats.ADCConversions += le.fastADC * int64(B)
	case modeAggregate:
		packedAggregateMVMBatch(le.cfg, le.pm, le.w, pb, le.fm, s.noiseFor(le.fm, le.key, B), s.accFor(B), out)
		stats.ADCConversions += le.fastADC * int64(B)
	case modeBitExact:
		var es ExecStats
		execPackedGridBatch(le.cfg, le.la, le.pm, pb, s.accFor(B), out, cols, &es)
		applyCorrectionBatch(out, le.w, pb)
		stats.ADCConversions += es.ADCConversions
	case modeBitExactNoisy:
		var es ExecStats
		execPackedGridBatchNoisy(le.cfg, le.la, le.pm, pb, s.noiseFor(le.fm, le.key, B), s.accFor(B), out, cols, &es)
		applyCorrectionBatch(out, le.w, pb)
		stats.ADCConversions += es.ADCConversions
	}
	stats.MVMs += int64(B)
	stats.KernelBatches++
	if B > stats.MaxKernelBatch {
		stats.MaxKernelBatch = B
	}
	for k := 0; k < B; k++ {
		f := pb.Scales[k]
		o := out[k*cols : (k+1)*cols]
		for j := range o {
			o[j] = le.w.ScaleFor(j) * f * o[j]
		}
	}
}

// Run executes one input through the plan's model on the mapped crossbars
// and returns the output vector (logits for the zoo models). It is
// RunBatch of a single input: the sliding-window positions of each conv
// layer still stream through the batched kernels in kernel batches.
func (e *Engine) Run(input *dnn.Tensor, opts InferenceOptions) ([]float64, InferenceStats, error) {
	outs, stats, err := e.RunBatch([]*dnn.Tensor{input}, opts)
	if err != nil {
		return nil, stats, err
	}
	return outs[0], stats, nil
}

// RunBatch executes a batch of inputs through the plan's model, returning
// one output vector per input. Conv layers flatten (input, position) into
// one global MVM index space chunked into kernel batches of
// DefaultKernelBatch patches; FC layers batch across the inputs themselves —
// so serving-side batches map directly onto kernel batches. Outputs are
// bit-identical to running each input alone: members of a batch never mix,
// and each member's noise stream is keyed per (layer, MVM) exactly as in
// the single-input path.
func (e *Engine) RunBatch(inputs []*dnn.Tensor, opts InferenceOptions) ([][]float64, InferenceStats, error) {
	return e.runBatch(inputs, opts, DefaultKernelBatch)
}

// runBatch is RunBatch with the kernel batch cap kb. The cap never changes
// results — batch members are independent and bit-exact — only how far
// each packed weight-word load amortizes; tests sweep it.
func (e *Engine) runBatch(inputs []*dnn.Tensor, opts InferenceOptions, kb int) ([][]float64, InferenceStats, error) {
	m := e.p.Model
	if len(inputs) == 0 {
		return nil, InferenceStats{}, fmt.Errorf("sim: empty inference batch")
	}
	if err := checkInputBits(e.p.Cfg); err != nil {
		return nil, InferenceStats{}, err
	}
	for _, input := range inputs {
		if input.C != m.InC || input.H != m.InH || input.W != m.InW {
			return nil, InferenceStats{}, fmt.Errorf("sim: input %dx%dx%d, model %q wants %dx%dx%d",
				input.C, input.H, input.W, m.Name, m.InC, m.InH, m.InW)
		}
	}
	var stats InferenceStats
	// Each layer must take exactly what its predecessor produces: a flat
	// model with skip branches (ResNet18, ResNet152) is not a chain.
	c, h, w, flattened := m.InC, m.InH, m.InW, false
	for _, l := range m.Layers {
		if l.GroupCount() > 1 {
			return nil, stats, fmt.Errorf("sim: functional inference does not support grouped convolutions (layer %s); metrics via Simulate do", l.Name)
		}
		var chained bool
		switch l.Kind {
		case dnn.Conv:
			chained = !flattened && l.InC == c && l.InH == h && l.InW == w
		case dnn.Pool:
			chained = !flattened && l.InH == h && l.InW == w
		case dnn.FC:
			chained = l.InC == c*h*w
		}
		if !chained {
			return nil, stats, fmt.Errorf("sim: functional inference needs a chained model (layer %s does not take its predecessor's %dx%dx%d output); metrics via Simulate do", l.Name, c, h, w)
		}
		if l.Kind != dnn.Pool {
			c = l.OutC
		}
		h, w, flattened = l.OutH, l.OutW, flattened || l.Kind == dnn.FC
	}
	simInferences.Add(int64(len(inputs)))
	mappables := m.Mappable()
	last := mappables[len(mappables)-1]
	curs := make([]*dnn.Tensor, len(inputs))
	copy(curs, inputs)
	var flats [][]float64
	for _, l := range m.Layers {
		switch l.Kind {
		case dnn.Conv:
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				return nil, stats, err
			}
			outs := make([]*dnn.Tensor, len(curs))
			for i := range outs {
				outs[i] = dnn.NewTensor(l.OutC, l.OutH, l.OutW)
			}
			if err := e.streamPatchBatches(le, l, curs, outs, kb, l != last, &stats); err != nil {
				return nil, stats, err
			}
			curs = outs
		case dnn.Pool:
			curs = e.poolBatch(l, curs, &stats)
		case dnn.FC:
			if flats == nil {
				flats = make([][]float64, len(curs))
				for i := range curs {
					flats[i] = curs[i].Flatten()
				}
			}
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				return nil, stats, err
			}
			if err := e.runFCBatches(le, flats, kb, &stats); err != nil {
				return nil, stats, err
			}
			if l != last {
				for _, f := range flats {
					dnn.ReLU(f)
				}
			}
		}
	}
	if flats == nil {
		flats = make([][]float64, len(curs))
		for i := range curs {
			flats[i] = curs[i].Flatten()
		}
	}
	return flats, stats, nil
}

// streamPatchBatches computes every sliding-window MVM of one conv layer
// for every input, chunking the global (input, position) index space into
// kernel batches of ≤ kb patches. A first pass builds every input's
// channel-max map; each chunk then quantizes its windows straight
// from the input tensors (quantizeConvBatch), runs them through the batched
// kernel, and writes the outputs into the output tensors' rows. Chunks fan
// out across a bounded worker pool; chunk boundaries are deterministic and
// members never mix, so results are schedule-independent. Both passes run
// on the pool when the layer's MACs pass parallelWorth. kb shrinks toward
// n/workers so small layers still occupy the pool. With relu set, the
// scatter applies the ReLU as it writes (v < 0 → +0, so −0 and NaN pass
// as dnn.ReLU leaves them).
func (e *Engine) streamPatchBatches(le *layerExec, l *dnn.Layer, curs, outs []*dnn.Tensor, kb int, relu bool, stats *InferenceStats) error {
	defer simStageStream.AddSince(time.Now())
	positions := l.OutH * l.OutW
	patchLen := curs[0].C * l.K * l.K
	if patchLen != le.w.Rows {
		return lengthErr(patchLen, le.w.Rows)
	}
	cols := le.w.Cols
	n := len(curs) * positions
	H, W := curs[0].H, curs[0].W
	maps := e.getScratch()
	defer e.putScratch(maps)
	cmax := maps.cmaxFor(len(curs) * H * W)
	parallel := parallelWorth(n, le.w.Rows, cols)
	e.runChunks(len(curs)*H, parallel, stats, func(_ *batchScratch, r int, _ *InferenceStats) {
		start := time.Now()
		channelMaxRow(cmax[r*W:(r+1)*W], curs[r/H], r%H)
		simStageInputPack.AddSince(start)
	})
	if per := n / runtime.GOMAXPROCS(0); per < kb {
		kb = max(per, 1)
	}
	chunks := (n + kb - 1) / kb
	digits := le.digits()
	e.runChunks(chunks, parallel, stats, func(s *batchScratch, c int, st *InferenceStats) {
		lo := c * kb
		bs := min(lo+kb, n) - lo
		start := time.Now()
		quantizeConvBatch(s.pb, l, curs, cmax, lo, bs, digits)
		simStageInputPack.AddSince(start)
		out := s.outFor(bs * cols)
		start = time.Now()
		le.applyBatch(s, out, st)
		simStageKernel.AddSince(start)
		// Members i… with the same input hold consecutive positions, so each
		// output channel of that run is one contiguous row of the tensor.
		for i := 0; i < bs; {
			ii, pos := (lo+i)/positions, (lo+i)%positions
			run := min(bs-i, positions-pos)
			data := outs[ii].Data
			for ch := 0; ch < cols; ch++ {
				row := data[ch*positions+pos:][:run]
				for j := range row {
					v := out[(i+j)*cols+ch]
					if relu && v < 0 {
						v = 0
					}
					row[j] = v
				}
			}
			i += run
		}
	})
	return nil
}

// minParallelPool is the input element count below which a pooling layer
// stays serial: 2¹² values take ~30 µs to pool (2×2 windows of random
// values, whose compares mispredict; 2-vCPU Xeon), over ten times the
// ~2 µs it takes to start and join a two-worker pool.
const minParallelPool = 1 << 12

// poolBatch max-pools every input through dnn.PoolMaxRef on the worker
// pool, in (input, channel-block) chunks: a C-major tensor holds each
// channel block contiguously, so a chunk pools its block as a tensor of its
// own. Pooling is per channel, so chunking changes no value. On the pool,
// inputs split into enough blocks to occupy it even at batch 1; a chunk
// that covers a whole input keeps PoolMaxRef's tensor, a smaller one
// copies its result into the input's output tensor.
func (e *Engine) poolBatch(l *dnn.Layer, curs []*dnn.Tensor, stats *InferenceStats) []*dnn.Tensor {
	C, plane := curs[0].C, curs[0].H*curs[0].W
	parallel := len(curs)*C*plane >= minParallelPool
	blocks, cb := 1, C
	if parallel {
		blocks = min(C, (runtime.GOMAXPROCS(0)+len(curs)-1)/len(curs))
		cb = (C + blocks - 1) / blocks
		blocks = (C + cb - 1) / cb
	}
	outs := make([]*dnn.Tensor, len(curs))
	if blocks > 1 {
		for i := range outs {
			outs[i] = dnn.NewTensor(C, l.OutH, l.OutW)
		}
	}
	e.runChunks(len(curs)*blocks, parallel, stats, func(_ *batchScratch, c int, _ *InferenceStats) {
		i, c0 := c/blocks, c%blocks*cb
		c1 := min(c0+cb, C)
		in := curs[i]
		p := dnn.PoolMaxRef(l, &dnn.Tensor{C: c1 - c0, H: in.H, W: in.W, Data: in.Data[c0*plane : c1*plane]})
		if blocks == 1 {
			outs[i] = p
		} else {
			copy(outs[i].Data[c0*p.H*p.W:], p.Data)
		}
	})
	return outs
}

// runFCBatches runs one FC layer over every input's flattened activations,
// batching across the inputs themselves in chunks of ≤ kb members — each
// quantized in place from its flats[i] — and replacing each flats[i] with
// the layer's outputs.
func (e *Engine) runFCBatches(le *layerExec, flats [][]float64, kb int, stats *InferenceStats) error {
	rows, cols := le.w.Rows, le.w.Cols
	if len(flats[0]) != rows {
		return lengthErr(len(flats[0]), rows)
	}
	n := len(flats)
	if kb > n {
		kb = n
	}
	chunks := (n + kb - 1) / kb
	digits := le.digits()
	e.runChunks(chunks, parallelWorth(n, rows, cols), stats, func(s *batchScratch, c int, st *InferenceStats) {
		lo := c * kb
		bs := min(lo+kb, n) - lo
		start := time.Now()
		s.pb.Reset(rows, bs, digits)
		for i := 0; i < bs; i++ {
			s.pb.QuantizeMember(i, flats[lo+i])
		}
		simStageInputPack.AddSince(start)
		out := s.outFor(bs * cols)
		start = time.Now()
		le.applyBatch(s, out, st)
		simStageKernel.AddSince(start)
		for i := 0; i < bs; i++ {
			flats[lo+i] = append(flats[lo+i][:0], out[i*cols:(i+1)*cols]...)
		}
	})
	return nil
}

// runChunks fans chunk indices [0, chunks) across a bounded worker pool
// (sequentially unless parallel; see parallelWorth). Each worker draws
// pooled scratch from the engine and accumulates stats privately; the merge
// after the barrier is order-independent, so aggregated stats are
// schedule-independent too.
func (e *Engine) runChunks(chunks int, parallel bool, stats *InferenceStats, runChunk func(s *batchScratch, c int, st *InferenceStats)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if !parallel || workers <= 1 {
		s := e.getScratch()
		defer e.putScratch(s)
		for c := 0; c < chunks; c++ {
			runChunk(s, c, stats)
		}
		return
	}
	parts := make([]InferenceStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *InferenceStats) {
			defer wg.Done()
			s := e.getScratch()
			defer e.putScratch(s)
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				runChunk(s, c, st)
			}
		}(&parts[w])
	}
	wg.Wait()
	for i := range parts {
		stats.merge(parts[i])
	}
}

// integerMVMInto is the fast path: the exact integer product qᵀ·u the
// analog pipeline reconstructs (proved equal to ExecuteMVM in tests),
// accumulated in int64 with a 4-row-blocked loop. u holds the input's
// quantized codes (one per weight row); acc must have length w.Cols and
// arrive zeroed; out receives the result.
func integerMVMInto(out []float64, acc []int64, w *quant.Matrix, u []uint8) {
	cols := w.Cols
	i := 0
	for ; i+3 < w.Rows; i += 4 {
		u0, u1 := int64(u[i]), int64(u[i+1])
		u2, u3 := int64(u[i+2]), int64(u[i+3])
		if u0|u1|u2|u3 == 0 {
			continue
		}
		r0 := w.Q[i*cols : (i+1)*cols]
		r1 := w.Q[(i+1)*cols : (i+2)*cols]
		r2 := w.Q[(i+2)*cols : (i+3)*cols]
		r3 := w.Q[(i+3)*cols : (i+4)*cols]
		for j := 0; j < cols; j++ {
			acc[j] += u0*int64(r0[j]) + u1*int64(r1[j]) + u2*int64(r2[j]) + u3*int64(r3[j])
		}
	}
	for ; i < w.Rows; i++ {
		uv := int64(u[i])
		if uv == 0 {
			continue
		}
		row := w.Q[i*cols : (i+1)*cols]
		for j, q := range row {
			acc[j] += uv * int64(q)
		}
	}
	for j, v := range acc {
		out[j] = float64(v)
	}
}
