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
	// chainErr is why the model is not a chain RunBatch can run (nil if it
	// is); orders[i] is mappable layer i's cmajorOrder.
	chainErr error
	orders   [][]int32

	mu       sync.Mutex
	weights  map[weightKey][]layerWeights
	faulted  map[faultKey]*quant.PackedMatrix
	repaired map[repairKey]*RepairedLayer

	// Batch scratch buffers are reused across chunks, layers and
	// inferences, activation slabs across inferences, fan-out state across
	// parallel runChunks calls. A column split's shared batch comes from
	// its own list, so its buffers keep their role and size.
	scratch freeList[batchScratch]
	shared  freeList[batchScratch]
	slabs   freeList[activations]
	fans    freeList[fanOut]
}

type weightKey struct {
	seed   int64
	perCol bool
}

// layerWeights is one layer's quantized weights: w in the model's C-major
// row order, and fast, the same matrix with its rows in the channels-last
// order the fast mode's codes take (built on first use; w itself when the
// two orders coincide).
type layerWeights struct {
	w, fast *quant.Matrix
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
	e := &Engine{
		p:        p,
		weights:  map[weightKey][]layerWeights{},
		faulted:  map[faultKey]*quant.PackedMatrix{},
		repaired: map[repairKey]*RepairedLayer{},
	}
	e.orders, e.chainErr = chainOrders(p.Model)
	return e
}

// chainOrders checks that each layer of m takes exactly what its
// predecessor produces — a flat model with skip branches (ResNet18,
// ResNet152) is not a chain, and grouped convolutions are refused — and
// returns every mappable layer's cmajorOrder: a conv layer's over its InC
// channels of K·K taps, an FC layer's over the channels and pixels of the
// activations it flattens (one pixel after another FC layer).
func chainOrders(m *dnn.Model) ([][]int32, error) {
	orders := make([][]int32, m.NumMappable())
	c, h, w, flattened := m.InC, m.InH, m.InW, false
	for _, l := range m.Layers {
		if l.GroupCount() > 1 {
			return nil, fmt.Errorf("sim: functional inference does not support grouped convolutions (layer %s); metrics via Simulate do", l.Name)
		}
		var chained bool
		switch l.Kind {
		case dnn.Conv:
			chained = !flattened && l.InC == c && l.InH == h && l.InW == w
			orders[l.Index] = cmajorOrder(c, l.K*l.K)
		case dnn.Pool:
			chained = !flattened && l.InH == h && l.InW == w
		case dnn.FC:
			chained = l.InC == c*h*w
			orders[l.Index] = cmajorOrder(c, h*w)
		}
		if !chained {
			return nil, fmt.Errorf("sim: functional inference needs a chained model (layer %s does not take its predecessor's %dx%dx%d output); metrics via Simulate do", l.Name, c, h, w)
		}
		if l.Kind != dnn.Pool {
			c = l.OutC
		}
		h, w, flattened = l.OutH, l.OutW, flattened || l.Kind == dnn.FC
	}
	return orders, nil
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

// columnSplit reports whether a parallel layer of n MVMs, cut into kernel
// batches of ≤ kb members, should split its weight columns across the
// workers instead of its members (runKernelBatches): it does when the
// members cannot keep every worker on four-member kernel passes — fewer
// than quant.MemberBlock members per worker, or fewer kernel batches than
// workers. On two workers VGG16's batch-1 conv4 and conv5 layers (16 and
// 4 windows) and its parallel FC layers up to batch 32 split by columns.
func columnSplit(n, kb, workers int) bool {
	return workers > 1 && (n < quant.MemberBlock*workers || (n+kb-1)/kb < workers)
}

// span returns part i of [0, n) cut into parts near-equal ranges.
func span(i, parts, n int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// DefaultKernelBatch is the kernel batch size RunBatch uses: big enough that
// the batched popcount kernels amortize each weight-word load ~32×8 ways,
// small enough that every AlexNet conv layer still splits into more chunks
// than typical core counts.
const DefaultKernelBatch = 32

// freeList is a stack of reusable buffers — a plain list rather than
// sync.Pool so the warm path's allocation bounds cannot be voided by a GC
// cycle emptying the pool mid-measurement. get pops one (a zero T the
// first time); put returns it.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, x)
}

// grow returns *buf resized to n elements, reallocating only when its
// capacity falls short; the contents are stale.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// weightsFor returns the layer's quantized weight matrix under opts,
// memoized across calls and inferences, and — with fast set — the same
// weights in channels-last row order (see layerWeights).
func (e *Engine) weightsFor(l *dnn.Layer, opts InferenceOptions, fast bool) (w, fw *quant.Matrix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := weightKey{seed: opts.Seed, perCol: opts.PerColumnScales}
	qw := e.weights[k]
	if qw == nil {
		qw = make([]layerWeights, len(e.p.Layers))
		e.weights[k] = qw
	}
	lw := &qw[l.Index]
	if lw.w == nil {
		simWeightsMiss.Inc()
		start := time.Now()
		bits := e.p.Layers[l.Index].WeightBits
		if bits < 1 {
			bits = e.p.Cfg.WeightBits
		}
		raw := dnn.SyntheticWeights(l, opts.Seed)
		if opts.PerColumnScales {
			lw.w = quant.QuantizeWeightsPerColumn(raw, bits)
		} else {
			lw.w = quant.QuantizeWeightsN(raw, bits)
		}
		simStageQuantize.AddSince(start)
	} else {
		simWeightsHit.Inc()
	}
	if fast && lw.fast == nil {
		lw.fast = permuteRows(lw.w, e.orders[l.Index])
	}
	return lw.w, lw.fast
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
	w       *quant.Matrix // the layer's weights, rows in C-major order
	mode    execMode
	fw      *quant.Matrix        // modeFast: w with rows in channels-last order
	bw      *quant.BlockedMatrix // modeFast: fw's blocked packing, preferred kernel (nil → scalar)
	pm      *quant.PackedMatrix  // bit-serial modes: planes served (ideal, faulted, or repaired)
	order   []int32              // bit-serial modes: cmajorOrder of the layer's codes (nil → identity)
	relu    bool                 // the epilogue applies the ReLU (every mappable layer but the last)
	fm      *fault.Model
	key     int64
	fastADC int64 // analytic ADC conversions per MVM on the fast paths
}

// prepareLayer resolves a layer's weights, planes, repair pass, and kernel
// mode for one inference's options into le (RunBatch reuses one layerExec
// across its layers).
func (e *Engine) prepareLayer(le *layerExec, l *dnn.Layer, opts InferenceOptions) error {
	la := e.p.Layers[l.Index]
	fast := !opts.BitExact && opts.Faults.Zero()
	w, fw := e.weightsFor(l, opts, fast)
	*le = layerExec{cfg: e.p.Cfg, la: la, w: w, fm: opts.Faults, key: int64(l.Index + 1),
		relu: l.Index < len(e.p.Layers)-1, order: e.orders[l.Index]}
	le.fastADC = int64(la.Mapping.ActiveCols) * int64(w.PlaneCount()) * int64(e.p.Cfg.InputBits)
	switch {
	case opts.Repair != nil && opts.Faults.CellFaultRate() > 0:
		rl, err := e.repairFor(la, w, opts)
		if err != nil {
			return err
		}
		le.pm = rl.Packed
	case !opts.Faults.Zero():
		if err := opts.Faults.Validate(); err != nil {
			return err
		}
		le.pm = e.faultedFor(la, w, opts.Faults)
	case opts.BitExact:
		le.mode, le.pm = modeBitExact, packedTimed(w)
		return nil
	default:
		le.mode, le.fw, le.bw, le.order = modeFast, fw, blockedTimed(fw), nil
		return nil
	}
	le.mode = modeAggregate
	if opts.BitExact {
		le.mode = modeBitExactNoisy
	}
	return nil
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
// quantized batch, the kernel's int64 scratch, per-member noise streams,
// and the row of channels-last codes a bit-serial mode reorders into
// C-major order. With it, a warm kernel batch allocates nothing on the
// ideal paths.
type batchScratch struct {
	pb    quant.PackedBatch
	acc   []int64
	u16   []uint16
	noise []func() float64
	codes []uint8
}

// noiseFor returns b per-member read-noise streams, each a fresh stream
// keyed by the layer — so member k's draws are bit-identical to running its
// MVM alone.
func (s *batchScratch) noiseFor(fm *fault.Model, key int64, b int) []func() float64 {
	noise := grow(&s.noise, b)
	for k := range noise {
		noise[k] = fm.Noise(key)
	}
	return noise
}

// memberCodes returns where member k of pb has its codes written in
// channels-last order: its own row of pb, or — when the layer reorders its
// codes — s's scratch row, which setMember then gathers into C-major order.
func (s *batchScratch) memberCodes(le *layerExec, pb *quant.PackedBatch, k int) []uint8 {
	if le.order == nil {
		return pb.Member(k)
	}
	return grow(&s.codes, pb.N)
}

// setMember completes member k of pb, whose codes memberCodes took: it
// gathers them into C-major order when the layer reorders (row i of the
// member takes code order[i]), then records the scale and code sum — a sum
// of exact integers, the same in either order.
func (s *batchScratch) setMember(le *layerExec, pb *quant.PackedBatch, k int, scale, sum float64) {
	if le.order != nil {
		u := pb.Member(k)
		for i, o := range le.order {
			u[i] = s.codes[o]
		}
	}
	pb.SetMember(k, scale, sum)
}

// digits reports whether the layer's kernel reads the bit-serial digit
// slab. The fast mode's byte-code kernels (blocked/scalar) never do, so
// packing it — the single largest non-kernel cost per batch — is skipped
// there; every bit-serial mode gets the full slab.
func (le *layerExec) digits() bool { return le.mode != modeFast }

// applyBatch runs the prepared layer's kernel over the batch packed in
// s.pb and writes its member-major outputs into out (length B·Cols,
// overwritten) through the epilogue: (ScaleFor(j)·f_k)·sum, then the
// layer's ReLU. The fast kernels fuse the epilogue into their writes; the
// bit-serial modes accumulate in out, subtract the offset-binary term and
// finish it in place. Shape agreement is the caller's responsibility
// (checked once per layer, not per batch).
func (le *layerExec) applyBatch(s *batchScratch, out []float64, stats *InferenceStats) {
	pb := &s.pb
	B := pb.B
	cols := le.w.Cols
	switch le.mode {
	case modeFast:
		if le.bw != nil {
			// Signed product directly — no offset correction term.
			u16 := grow(&s.u16, B*pb.N+quant.U16Slack)
			le.bw.WidenCodes(pb, u16, 0, B)
			le.bw.MulBatch(pb, out, u16, le.relu, 0, le.bw.Blocks)
		} else {
			integerMVMBatch(out, grow(&s.acc, cols), le.fw, pb, le.relu)
		}
	case modeAggregate:
		packedAggregateMVMBatch(le.cfg, le.pm, le.w, pb, le.fm, s.noiseFor(le.fm, le.key, B), grow(&s.acc, B), out)
	case modeBitExact:
		var es ExecStats
		execPackedGridBatch(le.cfg, le.la, le.pm, pb, grow(&s.acc, B), out, cols, &es)
		applyCorrectionBatch(out, le.w, pb)
		stats.ADCConversions += es.ADCConversions
	case modeBitExactNoisy:
		var es ExecStats
		execPackedGridBatchNoisy(le.cfg, le.la, le.pm, pb, s.noiseFor(le.fm, le.key, B), grow(&s.acc, B), out, cols, &es)
		applyCorrectionBatch(out, le.w, pb)
		stats.ADCConversions += es.ADCConversions
	}
	if le.mode != modeFast {
		for k := 0; k < B; k++ {
			le.w.Epilogue(out[k*cols:(k+1)*cols], pb.Scales[k], le.relu)
		}
	}
	stats.kernelBatch(le, B)
}

// kernelBatch counts one kernel batch of B members of the layer: its MVMs
// and, on the paths that price them analytically (fast and aggregate),
// their ADC conversions.
func (st *InferenceStats) kernelBatch(le *layerExec, B int) {
	if le.mode == modeFast || le.mode == modeAggregate {
		st.ADCConversions += le.fastADC * int64(B)
	}
	st.MVMs += int64(B)
	st.KernelBatches++
	if B > st.MaxKernelBatch {
		st.MaxKernelBatch = B
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
//
// Activations stay channels-last between layers (DESIGN §9): the inputs
// are converted once on entry into one slab, each layer writes the whole
// batch into the other slab of the pair, and the outputs are copied out
// (converted back to C-major if the model ends on a spatial layer).
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
	if e.chainErr != nil {
		return nil, stats, e.chainErr
	}
	simInferences.Add(int64(len(inputs)))
	act := e.slabs.get()
	defer e.slabs.put(act)
	cur := acts{n: len(inputs), c: m.InC, h: m.InH, w: m.InW}
	cur.data = grow(&act.slabs[0], cur.len())
	for i, input := range inputs {
		transpose(cur.input(i), input.Data, input.C) // C-major → channels-last
	}
	for li, l := range m.Layers {
		next := acts{n: cur.n, c: cur.c, h: l.OutH, w: l.OutW}
		if l.Kind != dnn.Pool {
			next.c = l.OutC
		}
		next.data = grow(&act.slabs[(li+1)%2], next.len())
		if l.Kind == dnn.Pool {
			e.poolBatch(l, cur, next.data, &stats)
		} else {
			le := &act.le
			err := e.prepareLayer(le, l, opts)
			if err == nil && l.Kind == dnn.Conv {
				err = e.streamPatchBatches(le, l, cur, grow(&act.cmax, cur.n*cur.h*cur.w), next.data, kb, &stats)
			} else if err == nil {
				err = e.runFCBatches(le, cur, next.data, kb, &stats)
			}
			if err != nil {
				return nil, stats, err
			}
		}
		cur = next
	}
	size := cur.len() / cur.n
	flat := make([]float64, cur.len())
	outs := make([][]float64, cur.n)
	for i := range outs {
		outs[i] = flat[i*size : (i+1)*size : (i+1)*size]
		transpose(outs[i], cur.input(i), size/cur.c) // channels-last → C-major
	}
	return outs, stats, nil
}

// acts is a batch of channels-last activations: n inputs of h×w pixels of
// c channels, channel ch of input i's pixel (y, x) at
// data[((i·h+y)·w+x)·c+ch]. An FC layer's output is n inputs of one pixel.
type acts struct {
	data       []float64
	n, c, h, w int
}

func (a acts) len() int { return a.n * a.c * a.h * a.w }

// input returns input i's activations.
func (a acts) input(i int) []float64 {
	size := a.c * a.h * a.w
	return a.data[i*size : (i+1)*size]
}

// activations is one RunBatch call's activation storage, reused across
// calls: the two ping-pong slabs layers read and write, the conv input
// path's channel-max maps, and the layer being run.
type activations struct {
	slabs [2][]float64
	cmax  []float64
	le    layerExec
}

// transpose writes src, rows rows of len(src)/rows values, into dst
// column by column: C-major activations (C rows of pixels, dnn.Tensor's
// layout) become channels-last with rows = C, and back with rows = pixels.
func transpose(dst, src []float64, rows int) {
	cols := len(src) / rows
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// streamPatchBatches computes every sliding-window MVM of one conv layer
// for every input of in, over the global (input, position) index space,
// and writes the outputs channels-last into out. A first pass builds every
// input's channel-max map into cmax; runKernelBatches then quantizes the
// windows straight from the activations (quantizeConvWindow) and runs them
// through the batched kernel, whose epilogue writes member j's outputs to
// out[j·cols:], which is exactly output pixel j of the batch. Both passes
// run on the pool when the layer's MACs pass parallelWorth.
func (e *Engine) streamPatchBatches(le *layerExec, l *dnn.Layer, in acts, cmax, out []float64, kb int, stats *InferenceStats) error {
	defer simStageStream.AddSince(time.Now())
	positions := l.OutH * l.OutW
	patchLen := in.c * l.K * l.K
	if patchLen != le.w.Rows {
		return lengthErr(patchLen, le.w.Rows)
	}
	n := in.n * positions
	parallel := parallelWorth(n, le.w.Rows, le.w.Cols)
	row := in.w * in.c
	e.runChunks(in.n*in.h, parallel, stats, func(_ *batchScratch, r int, _ *InferenceStats) {
		start := time.Now()
		channelMax(cmax[r*in.w:(r+1)*in.w], in.data[r*row:(r+1)*row], in.c)
		simStageInputPack.AddSince(start)
	})
	e.runKernelBatches(le, n, kb, parallel, out, stats, func(s *batchScratch, pb *quant.PackedBatch, k, j int) {
		quantizeConvWindow(s, pb, k, le, l, in, cmax, j)
	})
	return nil
}

// runKernelBatches runs n MVMs of the prepared layer on the worker pool
// (see runChunks), writing member j's outputs to out[j·Cols:] through the
// kernel's epilogue; quantize(s, pb, k, j) writes member j's codes into
// row k of pb, with s the calling worker's scratch. A parallel layer splits
// one of two ways, by the one rule columnSplit:
//
//   - by members: chunks of ≤ kb members — kb shrinks toward n/workers so
//     the chunks occupy the pool — each quantized into a worker's own batch
//     and run over every column block;
//   - by columns (fast mode on the blocked kernel only): every member is
//     quantized into one shared batch, by member ranges on the pool, with
//     the pair layout's widened codes filled there too, once; then each
//     worker runs every member, ≤ kb at a time, over its own range of
//     16-column blocks. The workers' ranges of an output row meet at a
//     block edge, a multiple of 128 bytes from the row's start.
func (e *Engine) runKernelBatches(le *layerExec, n, kb int, parallel bool, out []float64, stats *InferenceStats, quantize func(s *batchScratch, pb *quant.PackedBatch, k, j int)) {
	rows, cols := le.w.Rows, le.w.Cols
	workers := runtime.GOMAXPROCS(0)
	kb = min(kb, n)
	if parallel && le.bw != nil && columnSplit(n, kb, workers) {
		e.runColumnSplit(le, n, kb, workers, out, stats, quantize)
		return
	}
	if per := n / workers; parallel && per < kb {
		kb = max(per, 1)
	}
	e.runChunks((n+kb-1)/kb, parallel, stats, func(s *batchScratch, c int, st *InferenceStats) {
		lo := c * kb
		bs := min(lo+kb, n) - lo
		start := time.Now()
		s.pb.Reset(rows, bs, le.digits())
		for k := 0; k < bs; k++ {
			quantize(s, &s.pb, k, lo+k)
		}
		simStageInputPack.AddSince(start)
		start = time.Now()
		le.applyBatch(s, out[lo*cols:(lo+bs)*cols], st)
		simStageKernel.AddSince(start)
	})
}

// runColumnSplit is runKernelBatches' column split (see there).
func (e *Engine) runColumnSplit(le *layerExec, n, kb, workers int, out []float64, stats *InferenceStats, quantize func(s *batchScratch, pb *quant.PackedBatch, k, j int)) {
	rows, cols, bw := le.w.Rows, le.w.Cols, le.bw
	lead := e.shared.get()
	defer e.shared.put(lead)
	pb := &lead.pb
	pb.Reset(rows, n, false)
	u16 := grow(&lead.u16, n*rows+quant.U16Slack)
	ranges := min(n, workers)
	e.runChunks(ranges, true, stats, func(s *batchScratch, r int, _ *InferenceStats) {
		start := time.Now()
		k0, k1 := span(r, ranges, n)
		for k := k0; k < k1; k++ {
			quantize(s, pb, k, k)
		}
		bw.WidenCodes(pb, u16, k0, k1)
		simStageInputPack.AddSince(start)
	})
	parts := min(bw.Blocks, workers)
	e.runChunks(parts, true, stats, func(_ *batchScratch, r int, _ *InferenceStats) {
		start := time.Now()
		b0, b1 := span(r, parts, bw.Blocks)
		for k0 := 0; k0 < n; k0 += kb {
			k1 := min(k0+kb, n)
			sub := pb.Sub(k0, k1)
			bw.MulBatch(&sub, out[k0*cols:k1*cols], u16[k0*rows:], le.relu, b0, b1)
		}
		simStageKernel.AddSince(start)
	})
	for k0 := 0; k0 < n; k0 += kb {
		stats.kernelBatch(le, min(k0+kb, n)-k0)
	}
}

// minParallelPool is the input element count below which a pooling layer
// stays serial: 2¹² values take ~30 µs to pool (2×2 windows of random
// values, whose compares mispredict; 2-vCPU Xeon), over ten times the
// ~2 µs it takes to start and join a two-worker pool.
const minParallelPool = 1 << 12

// poolBatch max-pools every input of in into out (channels-last, l.OutH ×
// l.OutW pixels per input), one output row of one input per chunk of the
// worker pool. Each output pixel starts as its window's first pixel and
// takes each later pixel's channel run, in dnn.PoolMaxRef's (y, x) order,
// elementwise by v > best — the comparisons PoolMaxRef makes per channel,
// so a leading NaN or −0 stays as it does there.
func (e *Engine) poolBatch(l *dnn.Layer, in acts, out []float64, stats *InferenceStats) {
	C, H, W := in.c, in.h, in.w
	K, S, outW := l.K, l.Stride, l.OutW
	e.runChunks(in.n*l.OutH, in.len() >= minParallelPool, stats, func(_ *batchScratch, r int, _ *InferenceStats) {
		src := in.input(r / l.OutH)
		y0, y1 := r%l.OutH*S, min(r%l.OutH*S+K, H)
		for ox := 0; ox < outW; ox++ {
			x0, x1 := ox*S, min(ox*S+K, W)
			best := out[(r*outW+ox)*C:][:C]
			copy(best, src[(y0*W+x0)*C:])
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					if y != y0 || x != x0 {
						maxInto(best, src[(y*W+x)*C:])
					}
				}
			}
		}
	})
}

// maxInto takes each v of the channel run starting at run[0] into best
// where v > best holds.
func maxInto(best, run []float64) {
	run = run[:len(best)]
	for c, v := range run {
		if v > best[c] {
			best[c] = v
		}
	}
}

// runFCBatches runs one FC layer over every input's flattened activations,
// batching across the inputs themselves in chunks of ≤ kb members, and
// writes input i's outputs to out[i·Cols:].
func (e *Engine) runFCBatches(le *layerExec, in acts, out []float64, kb int, stats *InferenceStats) error {
	rows, cols := le.w.Rows, le.w.Cols
	if size := in.c * in.h * in.w; size != rows {
		return lengthErr(size, rows)
	}
	e.runKernelBatches(le, in.n, kb, parallelWorth(in.n, rows, cols), out, stats, func(s *batchScratch, pb *quant.PackedBatch, k, j int) {
		quantizeVector(s, pb, k, le, in.input(j))
	})
	return nil
}

// runChunks fans chunk indices [0, chunks) across a bounded worker pool
// (sequentially unless parallel; see parallelWorth). The caller works as
// worker 0 beside min(GOMAXPROCS, chunks)−1 goroutines. Each worker draws
// pooled scratch from the engine and accumulates stats privately; the merge
// after the barrier is order-independent, so aggregated stats are
// schedule-independent too. The fan-out state comes from the engine's free
// list, so a warm call allocates nothing.
func (e *Engine) runChunks(chunks int, parallel bool, stats *InferenceStats, runChunk func(s *batchScratch, c int, st *InferenceStats)) {
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if !parallel || workers <= 1 {
		s := e.scratch.get()
		defer e.scratch.put(s)
		for c := 0; c < chunks; c++ {
			runChunk(s, c, stats)
		}
		return
	}
	f := e.fans.get()
	defer e.fans.put(f)
	f.e, f.run, f.chunks = e, runChunk, int64(chunks)
	f.next.Store(0)
	clear(grow(&f.parts, workers))
	for w := len(f.starts); w < workers; w++ {
		f.starts = append(f.starts, func() {
			defer f.wg.Done()
			f.work(w)
		})
	}
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go f.starts[w]()
	}
	f.work(0)
	f.wg.Wait()
	f.run = nil
	for i := range f.parts {
		stats.merge(f.parts[i])
	}
}

// fanOut is one parallel runChunks call's shared state: the chunk
// function, the next unclaimed chunk, the barrier and each worker's
// private stats. starts[w] runs worker w on a goroutine; it is built once
// per fanOut, which the engine reuses across calls.
type fanOut struct {
	e      *Engine
	run    func(s *batchScratch, c int, st *InferenceStats)
	chunks int64
	next   atomic.Int64
	wg     sync.WaitGroup
	parts  []InferenceStats
	starts []func()
}

// work claims chunks until none is left, as worker w.
func (f *fanOut) work(w int) {
	s := f.e.scratch.get()
	defer f.e.scratch.put(s)
	for {
		c := f.next.Add(1) - 1
		if c >= f.chunks {
			return
		}
		f.run(s, int(c), &f.parts[w])
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
