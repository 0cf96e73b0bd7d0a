package nn

import (
	"fmt"
	"math/rand"

	"autohet/internal/cpufeat"
	"autohet/internal/mat"
)

// Dense is one fully-connected layer: out = act(W·in + b).
type Dense struct {
	W   *mat.Matrix // out × in
	B   []float64   // out
	Act Activation

	// Gradient accumulators, filled by Backward and BackwardBatch and
	// consumed by the optimizer. Same shapes as W and B.
	GW *mat.Matrix
	GB []float64
}

// newDense allocates a layer with Xavier-initialized weights.
func newDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	w := mat.New(out, in)
	w.XavierInit(rng, in, out)
	return &Dense{
		W:   w,
		B:   make([]float64, out),
		Act: act,
		GW:  mat.New(out, in),
		GB:  make([]float64, out),
	}
}

// Network is a feed-forward stack of dense layers. Forward and Backward keep
// their activations in a one-sample Batch the network owns, so a Backward
// call can follow a Forward call; a Network is therefore not safe for
// concurrent use (clone one per goroutine instead).
type Network struct {
	Layers []*Dense

	one *Batch // scratch of the one-sample Forward/Backward
}

// LayerSpec describes one layer of an MLP for NewNetwork.
type LayerSpec struct {
	Out int
	Act Activation
}

// NewNetwork builds an MLP with the given input width and layer specs.
// Weights are Xavier-initialized from rng.
func NewNetwork(rng *rand.Rand, inputs int, specs ...LayerSpec) *Network {
	if inputs <= 0 {
		panic("nn: network needs a positive input width")
	}
	if len(specs) == 0 {
		panic("nn: network needs at least one layer")
	}
	n := &Network{}
	in := inputs
	for _, s := range specs {
		if s.Out <= 0 {
			panic(fmt.Sprintf("nn: layer width %d invalid", s.Out))
		}
		if !s.Act.valid() {
			panic(fmt.Sprintf("nn: unknown activation %d", int(s.Act)))
		}
		n.Layers = append(n.Layers, newDense(rng, in, s.Out, s.Act))
		in = s.Out
	}
	n.one = NewBatch(n, 1)
	return n
}

// InputSize returns the expected input width.
func (n *Network) InputSize() int { return n.Layers[0].W.Cols }

// OutputSize returns the output width.
func (n *Network) OutputSize() int { return len(n.Layers[len(n.Layers)-1].B) }

// SameShape reports whether n and o have the same layer widths, so one Batch
// serves both.
func (n *Network) SameShape(o *Network) bool {
	if len(n.Layers) != len(o.Layers) {
		return false
	}
	for i, l := range n.Layers {
		if l.W.Rows != o.Layers[i].W.Rows || l.W.Cols != o.Layers[i].W.Cols {
			return false
		}
	}
	return true
}

// Batch is the scratch of batched passes: the activations and deltas at every
// layer boundary for up to its capacity of samples, each boundary a sample-major block of
// one flat buffer. It serves every network of the shape it was built for, so
// an online network and its target share one; a pass's
// activations live until the next ForwardBatch through the same Batch.
type Batch struct {
	shape  *Network    // the network s was built for
	acts   [][]float64 // acts[0] is capacity × input width, acts[i+1] capacity × layer i's width
	deltas [][]float64 // same shapes as acts
	panels []float64   // W packed for dense4x8, rewritten by every layer's pass
	off    []int       // nonzero's row offsets, one per sample or output
	scale  []float64   // nonzero's scales, same length
	net    *Network    // network of the last ForwardBatch
	n      int         // samples in the last ForwardBatch
}

// NewBatch returns scratch for passes of up to capacity samples through
// networks shaped like net.
func NewBatch(net *Network, capacity int) *Batch {
	if capacity <= 0 {
		panic(fmt.Sprintf("nn: batch capacity %d", capacity))
	}
	widths := []int{net.InputSize()}
	total := net.InputSize()
	for _, l := range net.Layers {
		widths = append(widths, l.W.Rows)
		total += l.W.Rows
	}
	acts := make([]float64, capacity*total)
	deltas := make([]float64, capacity*total)
	s := &Batch{shape: net}
	lists := capacity
	for _, w := range widths {
		lists = max(lists, w)
		m := capacity * w
		s.acts = append(s.acts, acts[:m:m])
		s.deltas = append(s.deltas, deltas[:m:m])
		acts, deltas = acts[m:], deltas[m:]
	}
	if capacity >= 4 { // fewer samples never reach the kernel
		m := 0
		for _, l := range net.Layers {
			m = max(m, l.W.Rows&^7*l.W.Cols)
		}
		s.panels = make([]float64, m)
	}
	s.off, s.scale = make([]int, lists), make([]float64, lists)
	return s
}

// Input returns the input block of the first b samples (b × input width,
// sample-major) for the caller to fill before ForwardBatch.
func (s *Batch) Input(b int) []float64 {
	in := s.shape.InputSize()
	if b <= 0 || b*in > len(s.acts[0]) {
		panic(fmt.Sprintf("nn: batch of %d samples, capacity %d", b, len(s.acts[0])/in))
	}
	return s.acts[0][:b*in]
}

// Forward runs x through the network and returns the output activation. The
// returned slice is owned by the network and overwritten by the next call.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	copy(n.one.Input(1), x)
	return n.ForwardBatch(n.one, 1)
}

// ForwardBatch runs the first b samples of s's input block through the
// network and returns their outputs (b × output width, sample-major, owned
// by s). Every output is bit-identical to a one-sample Forward of that
// sample: each keeps its own accumulator, summed in input order.
func (n *Network) ForwardBatch(s *Batch, b int) []float64 {
	s.Input(b) // bounds check
	if n != s.shape && !n.SameShape(s.shape) {
		panic("nn: batch scratch built for a different network shape")
	}
	for i, l := range n.Layers {
		l.forward(s.acts[i][:b*l.W.Cols], s.acts[i+1][:b*l.W.Rows], s.panels)
	}
	s.net, s.n = n, b
	return s.acts[len(n.Layers)][:b*n.OutputSize()]
}

// forward computes y = act(W·x + b) for every sample of x (sample-major).
// On AVX2 hardware dense4x8 computes every full block of four samples by
// eight outputs from W packed into panels (scratch the Batch owns, packed
// again on every pass, so no copy of W can go stale); the scalar loops
// compute the outputs and samples left over, and everything elsewhere. Both
// keep one accumulator per output summed from zero in input order, then add
// the bias and apply the activation, so every output has the same bits
// whichever computes it.
func (l *Dense) forward(x, y, panels []float64) {
	in, out := l.W.Cols, l.W.Rows
	nk, ok := 0, 0 // samples and outputs the kernel computes
	if cpufeat.AVX2 && len(x) >= 4*in && out >= 8 {
		nk, ok = len(x)/in&^3, out&^7
		p := l.packPanels(panels, ok)
		for b := 0; b < nk; b += 4 {
			// Reads x[b·in : (b+4)·in], writes y[b·out : (b+3)·out + ok].
			dense4x8(&p[0], &x[b*in], &y[b*out], &l.B[0], in, out, ok/8, l.Act == ReLU)
		}
		if l.Act != Linear && l.Act != ReLU {
			for b := 0; b < nk; b++ {
				l.Act.applyTo(y[b*out : b*out+ok])
			}
		}
	}
	if ok < out {
		l.forwardScalar(x[:nk*in], y[:nk*out], ok)
	}
	l.forwardScalar(x[nk*in:], y[nk*out:], 0)
}

// packPanels copies W's first ok rows (a multiple of 8) into dst as ok/8
// k-major panels of in × 8 weights, panel p holding W[8p+c][k] at
// [(p·in + k)·8 + c], and returns that prefix of dst.
func (l *Dense) packPanels(dst []float64, ok int) []float64 {
	in := l.W.Cols
	p := dst[:ok*in]
	for j := 0; j < ok; j++ {
		q := p[(j/8)*in*8+j%8:]
		for k, v := range l.W.Data[j*in : (j+1)*in] {
			q[k*8] = v
		}
	}
	return p
}

// forwardScalar computes outputs [j0, out) of every sample of x. Blocks of
// two weight rows by four samples share each pass over the inputs, as do
// the odd row's four samples and, past the last full block of samples,
// each sample's blocks of four rows; the rows left over run one at a time.
// Each dot product stays one accumulator summed from +0 in k order, so the
// chains only overlap in time and every sum is bit-identical to the
// one-sample loop.
func (l *Dense) forwardScalar(x, y []float64, j0 int) {
	in, out := l.W.Cols, l.W.Rows
	w := l.W.Data
	nb := len(x) / in
	nb4, out2 := nb&^3, j0+(out-j0)&^1
	for b := 0; b < nb4; b += 4 {
		x0 := x[b*in : (b+1)*in]
		x1 := x[(b+1)*in : (b+2)*in][:len(x0)]
		x2 := x[(b+2)*in : (b+3)*in][:len(x0)]
		x3 := x[(b+3)*in : (b+4)*in][:len(x0)]
		y0 := y[b*out : (b+1)*out]
		y1 := y[(b+1)*out : (b+2)*out][:len(y0)]
		y2 := y[(b+2)*out : (b+3)*out][:len(y0)]
		y3 := y[(b+3)*out : (b+4)*out][:len(y0)]
		for j := j0; j < out2; j += 2 {
			r0 := w[j*in : (j+1)*in][:len(x0)]
			r1 := w[(j+1)*in : (j+2)*in][:len(x0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, v := range r0 {
				u := r1[k]
				a0, a1, a2, a3 := x0[k], x1[k], x2[k], x3[k]
				s00 += v * a0
				s01 += v * a1
				s02 += v * a2
				s03 += v * a3
				s10 += u * a0
				s11 += u * a1
				s12 += u * a2
				s13 += u * a3
			}
			b0, b1 := l.B[j], l.B[j+1]
			y0[j], y0[j+1] = s00+b0, s10+b1
			y1[j], y1[j+1] = s01+b0, s11+b1
			y2[j], y2[j+1] = s02+b0, s12+b1
			y3[j], y3[j+1] = s03+b0, s13+b1
		}
		if j := out2; j < out {
			var s0, s1, s2, s3 float64
			for k, v := range w[j*in : (j+1)*in][:len(x0)] {
				s0 += v * x0[k]
				s1 += v * x1[k]
				s2 += v * x2[k]
				s3 += v * x3[k]
			}
			y0[j], y1[j], y2[j], y3[j] = s0+l.B[j], s1+l.B[j], s2+l.B[j], s3+l.B[j]
		}
	}
	for b := nb4; b < nb; b++ {
		xb := x[b*in : (b+1)*in]
		yb := y[b*out : (b+1)*out]
		j := j0
		for ; j+4 <= out; j += 4 {
			r0 := w[j*in : (j+1)*in][:len(xb)]
			r1 := w[(j+1)*in : (j+2)*in][:len(xb)]
			r2 := w[(j+2)*in : (j+3)*in][:len(xb)]
			r3 := w[(j+3)*in : (j+4)*in][:len(xb)]
			var s0, s1, s2, s3 float64
			for k, a := range xb {
				s0 += r0[k] * a
				s1 += r1[k] * a
				s2 += r2[k] * a
				s3 += r3[k] * a
			}
			yb[j], yb[j+1], yb[j+2], yb[j+3] = s0+l.B[j], s1+l.B[j+1], s2+l.B[j+2], s3+l.B[j+3]
		}
		for ; j < out; j++ {
			var s float64
			for k, v := range w[j*in : (j+1)*in][:len(xb)] {
				s += v * xb[k]
			}
			yb[j] = s + l.B[j]
		}
	}
	if j0 == 0 {
		l.Act.applyTo(y)
		return
	}
	for b := 0; b < nb; b++ {
		l.Act.applyTo(y[b*out+j0 : (b+1)*out])
	}
}

// Backward accumulates parameter gradients for the most recent Forward call,
// given dLoss/dOutput, and returns dLoss/dInput (owned by the network).
// Gradients add into GW/GB so minibatch updates can accumulate across
// samples; call ZeroGrad before a new batch.
func (n *Network) Backward(dOut []float64) []float64 {
	n.backward(n.one, dOut, true, 0, n.InputSize())
	return n.one.deltas[0][:n.InputSize()]
}

// BackwardBatch accumulates the parameter gradients of the last ForwardBatch
// through s, given dLoss/dOutput per sample (b × output width). Every
// gradient is bit-identical to b one-sample Backward calls in sample order.
// It computes no dLoss/dInput.
func (n *Network) BackwardBatch(s *Batch, dOut []float64) {
	n.backward(s, dOut, true, 0, 0)
}

// InputGradBatch backpropagates dOut through the last ForwardBatch through s
// and writes each sample's dLoss/dInput[col] to dst (length b; it may alias
// dOut). It accumulates no parameter gradients — a probe, as DDPG's actor
// step reads dQ/da off the critic.
func (n *Network) InputGradBatch(s *Batch, dOut []float64, col int, dst []float64) {
	in := n.InputSize()
	if col < 0 || col >= in || len(dst) != s.n {
		panic(fmt.Sprintf("nn: input column %d of %d into %d samples, want %d", col, in, len(dst), s.n))
	}
	n.backward(s, dOut, false, col, col+1)
	for b := range dst {
		dst[b] = s.deltas[0][b*in+col]
	}
}

// backward is the one backward pass. Layer by layer it folds the activation
// derivative into the deltas, accumulates GW/GB when grads is set, and
// propagates the deltas down; at the first layer it computes only input
// columns [lo, hi), the ones its caller reads.
func (n *Network) backward(s *Batch, dOut []float64, grads bool, lo, hi int) {
	if s.net != n {
		panic("nn: backward without a forward pass through this batch")
	}
	last := len(n.Layers)
	if len(dOut) != s.n*n.OutputSize() {
		panic(fmt.Sprintf("nn: dOut size %d, want %d", len(dOut), s.n*n.OutputSize()))
	}
	copy(s.deltas[last], dOut)
	for i := last - 1; i >= 0; i-- {
		l := n.Layers[i]
		in, out := l.W.Cols, l.W.Rows
		x := s.acts[i][:s.n*in]
		y := s.acts[i+1][:s.n*out]
		d := s.deltas[i+1][:s.n*out]
		l.Act.mulDerivative(d, y)
		if grads {
			l.accumulate(d, x, s.off, s.scale)
		}
		if i > 0 {
			l.backprop(d, s.deltas[i][:s.n*in], 0, in, s.off, s.scale)
		} else if hi > lo {
			l.backprop(d, s.deltas[0][:s.n*in], lo, hi, s.off, s.scale)
		}
	}
}

// accumulate adds every sample's outer product d ⊗ x into GW and d into GB.
// Each element receives the samples in order, and a zero delta adds nothing
// to its GW row, exactly as one-sample passes in sample order would. off
// and scale are scratch of at least one entry per sample.
func (l *Dense) accumulate(d, x []float64, off []int, scale []float64) {
	in, out := l.W.Cols, l.W.Rows
	nb := len(d) / out
	for b := 0; b < nb; b++ {
		for j, dj := range d[b*out : (b+1)*out] {
			l.GB[j] += dj
		}
	}
	for j := 0; j < out; j++ {
		n := nonzero(off, scale, d[j:], out, nb, in)
		axpy(l.GW.Data[j*in:(j+1)*in], x, off[:n], scale[:n])
	}
}

// backprop writes dx[:, lo:hi] = (Wᵀ·d)[lo:hi] per sample, adding the rows in
// order from zero and skipping rows whose delta is zero. off and scale are
// scratch of at least one entry per row.
func (l *Dense) backprop(d, dx []float64, lo, hi int, off []int, scale []float64) {
	in, out := l.W.Cols, l.W.Rows
	for b := 0; b < len(d)/out; b++ {
		dst := dx[b*in+lo : b*in+hi]
		clear(dst)
		n := nonzero(off, scale, d[b*out:], 1, out, in)
		axpy(dst, l.W.Data[lo:], off[:n], scale[:n])
	}
}

// nonzero lists the nonzero values among v[0], v[step], …, v[(count−1)·step]
// in order: the i-th one found goes to scale[i], with its position times
// stride in off[i]. It returns how many it found. The loop has no
// data-dependent branch, so the mix of zero and nonzero values (ReLU's dead
// units) costs no mispredictions; it is kept out of line so its counters
// stay in registers.
//
//go:noinline
func nonzero(off []int, scale, v []float64, step, count, stride int) int {
	off, scale = off[:count], scale[:count]
	n, o := 0, 0
	for i := range off {
		x := v[i*step]
		off[n], scale[n] = o, x
		if x != 0 {
			n++
		}
		o += stride
	}
	return n
}

// axpy adds the listed rows of a, scaled, into acc in list order:
// acc[c] += scale[i]·a[off[i] + c] for every i, one rounded multiply and one
// rounded add per row. On AVX2 hardware axpy32, axpy8 and axpy4 compute
// every full block of 32, then 8, then 4 columns, and axpyNarrow the one to
// three columns left over; elsewhere the loop below computes four rows per
// pass over acc, and axpyNarrow rows of one to three columns.
func axpy(acc, a []float64, off []int, scale []float64) {
	if len(off) == 0 {
		return
	}
	if cpufeat.AVX2 {
		k0 := 0
		for ; k0+32 <= len(acc); k0 += 32 {
			axpy32(&acc[k0], &a[k0], &off[0], &scale[0], len(off))
		}
		for ; k0+8 <= len(acc); k0 += 8 {
			axpy8(&acc[k0], &a[k0], &off[0], &scale[0], len(off))
		}
		if k0+4 <= len(acc) {
			axpy4(&acc[k0], &a[k0], &off[0], &scale[0], len(off))
			k0 += 4
		}
		acc, a = acc[k0:], a[k0:]
	}
	w := len(acc)
	if w < 4 {
		axpyNarrow(acc, a, off, scale)
		return
	}
	i := 0
	for ; i+4 <= len(off); i += 4 {
		s0, s1, s2, s3 := scale[i], scale[i+1], scale[i+2], scale[i+3]
		a0 := a[off[i]:][:w]
		a1 := a[off[i+1]:][:w]
		a2 := a[off[i+2]:][:w]
		a3 := a[off[i+3]:][:w]
		for c, g := range acc {
			g += s0 * a0[c]
			g += s1 * a1[c]
			g += s2 * a2[c]
			g += s3 * a3[c]
			acc[c] = g
		}
	}
	for ; i < len(off); i++ {
		s, ai := scale[i], a[off[i]:][:w]
		for c := range acc {
			acc[c] += s * ai[c]
		}
	}
}

// axpyNarrow is axpy for zero to three columns: one pass over the list,
// each column its own chain in a register.
func axpyNarrow(acc, a []float64, off []int, scale []float64) {
	scale = scale[:len(off)]
	switch len(acc) {
	case 1:
		g0 := acc[0]
		for i, o := range off {
			g0 += scale[i] * a[o]
		}
		acc[0] = g0
	case 2:
		g0, g1 := acc[0], acc[1]
		for i, o := range off {
			r := a[o : o+2]
			g0 += scale[i] * r[0]
			g1 += scale[i] * r[1]
		}
		acc[0], acc[1] = g0, g1
	case 3:
		g0, g1, g2 := acc[0], acc[1], acc[2]
		for i, o := range off {
			r := a[o : o+3]
			g0 += scale[i] * r[0]
			g1 += scale[i] * r[1]
			g2 += scale[i] * r[2]
		}
		acc[0], acc[1], acc[2] = g0, g1, g2
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		l.GW.Zero()
		for i := range l.GB {
			l.GB[i] = 0
		}
	}
}

// Clone returns a deep copy of the network (weights, not gradients).
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		c := &Dense{
			W:   l.W.Clone(),
			B:   append([]float64(nil), l.B...),
			Act: l.Act,
			GW:  mat.New(l.W.Rows, l.W.Cols),
			GB:  make([]float64, len(l.B)),
		}
		out.Layers = append(out.Layers, c)
	}
	out.one = NewBatch(out, 1)
	return out
}

// SoftUpdate moves this network's parameters toward src:
// θ ← (1−tau)·θ + tau·θ_src. It implements DDPG target-network tracking.
func (n *Network) SoftUpdate(src *Network, tau float64) {
	if !n.SameShape(src) {
		panic("nn: SoftUpdate between networks of different shapes")
	}
	for i, l := range n.Layers {
		s := src.Layers[i]
		lerp(l.W.Data, s.W.Data, tau)
		lerp(l.B, s.B, tau)
	}
}

// lerp sets d[i] = (1−tau)·d[i] + tau·s[i]: two rounded multiplies, then
// one rounded add. On AVX2 hardware lerp4 computes every full block of
// four, the loop the rest.
func lerp(d, s []float64, tau float64) {
	s = s[:len(d)]
	a, i := 1-tau, 0
	if cpufeat.AVX2 && len(d) >= 4 {
		i = len(d) &^ 3
		lerp4(&d[0], &s[0], i/4, a, tau)
	}
	for ; i < len(d); i++ {
		d[i] = a*d[i] + tau*s[i]
	}
}

// CopyFrom hard-copies parameters from src (tau = 1 soft update).
func (n *Network) CopyFrom(src *Network) { n.SoftUpdate(src, 1) }

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.W.Rows*l.W.Cols + len(l.B)
	}
	return total
}

// GradMaxAbs returns the largest absolute accumulated gradient, useful for
// diagnosing divergence in tests.
func (n *Network) GradMaxAbs() float64 {
	var max float64
	for _, l := range n.Layers {
		if g := l.GW.MaxAbs(); g > max {
			max = g
		}
		for _, g := range l.GB {
			if g < 0 {
				g = -g
			}
			if g > max {
				max = g
			}
		}
	}
	return max
}
