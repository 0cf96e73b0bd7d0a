package sim

import (
	"math"
	"math/rand"
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/quant"
)

// channelsLastActs returns the C-major tensors ts, which share one shape,
// as a channels-last batch, the layout the engine keeps activations in.
func channelsLastActs(ts []*dnn.Tensor) acts {
	t0 := ts[0]
	a := acts{n: len(ts), c: t0.C, h: t0.H, w: t0.W}
	a.data = make([]float64, a.len())
	for i, t := range ts {
		transpose(a.input(i), t.Data, t.C)
	}
	return a
}

// quantizeConvBatch resets s.pb to bs members and quantizes conv windows
// lo, …, lo+bs-1 of in into it, as a member-split chunk of the engine does.
func quantizeConvBatch(s *batchScratch, le *layerExec, l *dnn.Layer, in acts, cmax []float64, lo, bs int) {
	s.pb.Reset(in.c*l.K*l.K, bs, le.digits())
	for k := 0; k < bs; k++ {
		quantizeConvWindow(s, &s.pb, k, le, l, in, cmax, lo+k)
	}
}

// prepareNew is Engine.prepareLayer into a fresh layerExec.
func prepareNew(e *Engine, l *dnn.Layer, opts InferenceOptions) (*layerExec, error) {
	le := new(layerExec)
	return le, e.prepareLayer(le, l, opts)
}

// channelMaxMap returns every input's channel-max map, back to back.
func channelMaxMap(a acts) []float64 {
	m := make([]float64, a.n*a.h*a.w)
	channelMax(m, a.data, a.c)
	return m
}

// fuzzTensor fills a C×H×W tensor from rng. mode picks the value mix:
// 0 mixes positives with zeros, −0, negatives, NaN and ±Inf; 1 is all
// zero; 2 holds no positive value at all (zeros, −0, negatives, NaN);
// 3 is positives with sparse zeros, as after a ReLU; 4 is near ties: a
// window holding the peak 3.7 quantizes under scale s = 3.7/255, and the
// other values are the ties (k+0.5)·s and their float neighbours.
func fuzzTensor(rng *rand.Rand, c, h, w, mode int) *dnn.Tensor {
	t := dnn.NewTensor(c, h, w)
	for i := range t.Data {
		var v float64
		switch mode {
		case 0:
			switch rng.Intn(10) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = math.NaN()
			case 2:
				v = -rng.Float64()
			case 3:
				if rng.Intn(8) == 0 {
					v = math.Inf(1 - 2*rng.Intn(2))
				}
			default:
				v = rng.Float64() * 4
			}
		case 2:
			switch rng.Intn(4) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = math.NaN()
			case 2:
				v = -rng.Float64()
			}
		case 3:
			if rng.Intn(3) != 0 {
				v = rng.Float64()
			}
		case 4:
			const peak = 3.7
			v = peak
			if rng.Intn(8) != 0 {
				v = (float64(rng.Intn(255)) + 0.5) * quant.ActivationScale(peak)
				v = math.Nextafter(v, v+float64(rng.Intn(3)-1))
			}
		}
		t.Data[i] = v
	}
	return t
}

// sameBits reports whether a and b are the same float64 by bits, except
// that any NaN matches any NaN. A code sum over a window holding NaNs of
// two payloads (math.NaN() and the default NaN of Inf/Inf) carries
// whichever payload the add's operand order keeps, and Go leaves that
// order to the compiler: the same code compiled with the fuzzer's
// instrumentation keeps the other one.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// samePackedBatch fails unless got and want hold the same shape, codes,
// digit words, and — compared by bits (sameBits), so −0 counts — the same
// scales and code sums.
func samePackedBatch(t *testing.T, what string, got, want *quant.PackedBatch) {
	t.Helper()
	if got.N != want.N || got.B != want.B || got.Words != want.Words {
		t.Fatalf("%s: shape %dx%d (%d words), want %dx%d (%d words)", what, got.B, got.N, got.Words, want.B, want.N, want.Words)
	}
	for i := range want.U {
		if got.U[i] != want.U[i] {
			t.Fatalf("%s: member %d row %d code %d, want %d", what, i/want.N, i%want.N, got.U[i], want.U[i])
		}
	}
	for k := 0; k < want.B; k++ {
		if !sameBits(got.Scales[k], want.Scales[k]) {
			t.Fatalf("%s: member %d scale %v, want %v", what, k, got.Scales[k], want.Scales[k])
		}
		if !sameBits(got.USums[k], want.USums[k]) {
			t.Fatalf("%s: member %d code sum %v (%#x), want %v (%#x)", what, k,
				got.USums[k], math.Float64bits(got.USums[k]), want.USums[k], math.Float64bits(want.USums[k]))
		}
	}
	if len(got.Digits) != len(want.Digits) {
		t.Fatalf("%s: %d digit words, want %d", what, len(got.Digits), len(want.Digits))
	}
	for i := range want.Digits {
		if got.Digits[i] != want.Digits[i] {
			t.Fatalf("%s: digit word %d = %#x, want %#x", what, i, got.Digits[i], want.Digits[i])
		}
	}
}

// FuzzFusedPatchCodes: the fused conv input path (quantizeConvWindow from
// the channels-last activations and their channel-max maps) must build
// exactly the batch that extracting the same windows with Tensor.PatchInto
// and quantizing the slab builds — over shapes, strides, paddings
// (including windows wholly in the padding), several inputs, and batches
// starting anywhere in the (input, position) index space. The fast mode's
// codes-only batch is compared with QuantizeBatchFlatCodesInto through the
// documented row permutation: PatchInto's row (c, ky, kx) is the fast
// mode's row (ky, kx, c). A bit-serial mode's batch, gathered back into
// C-major order, is compared directly with QuantizeBatchFlatInto, digit
// slab included. Kernels up to 11 wide on maps up to 16×16 give window
// rows of several four-lane chunks and every masked tail length.
func FuzzFusedPatchCodes(f *testing.F) {
	// c, h, w, k, stride, pad, inputs, lo, bs, mode, seed
	f.Add(uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(1), uint8(0), uint8(32), uint8(3), int64(1))
	f.Add(uint8(4), uint8(5), uint8(7), uint8(3), uint8(2), uint8(1), uint8(3), uint8(11), uint8(20), uint8(0), int64(2))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(2), uint8(1), uint8(3), uint8(2), uint8(4), uint8(31), uint8(0), int64(3))
	f.Add(uint8(5), uint8(6), uint8(6), uint8(1), uint8(1), uint8(0), uint8(2), uint8(30), uint8(9), uint8(1), int64(4))
	f.Add(uint8(7), uint8(4), uint8(9), uint8(5), uint8(3), uint8(2), uint8(1), uint8(2), uint8(7), uint8(2), int64(5))
	f.Add(uint8(8), uint8(9), uint8(9), uint8(3), uint8(1), uint8(1), uint8(3), uint8(70), uint8(32), uint8(0), int64(6))
	f.Add(uint8(3), uint8(16), uint8(13), uint8(11), uint8(2), uint8(3), uint8(2), uint8(5), uint8(32), uint8(4), int64(7))
	f.Add(uint8(2), uint8(15), uint8(16), uint8(7), uint8(1), uint8(2), uint8(1), uint8(40), uint8(24), uint8(4), int64(8))
	f.Fuzz(func(t *testing.T, cB, hB, wB, kB, strideB, padB, inputsB, loB, bsB, mode uint8, seed int64) {
		C, H, W := 1+int(cB%8), 1+int(hB%16), 1+int(wB%16)
		K, stride, pad := 1+int(kB%11), 1+int(strideB%3), int(padB%4)
		if H+2*pad < K || W+2*pad < K {
			return
		}
		l := &dnn.Layer{Name: "fuzz", Kind: dnn.Conv, K: K, InC: C, OutC: 1, Stride: stride, Pad: pad,
			InH: H, InW: W, OutH: (H+2*pad-K)/stride + 1, OutW: (W+2*pad-K)/stride + 1}
		rng := rand.New(rand.NewSource(seed))
		curs := make([]*dnn.Tensor, 1+int(inputsB%3))
		for i := range curs {
			curs[i] = fuzzTensor(rng, C, H, W, int(mode%5))
		}
		in := channelsLastActs(curs)
		cmax := channelMaxMap(in)
		positions := l.OutH * l.OutW
		n := len(curs) * positions
		lo := int(loB) % n
		bs := 1 + int(bsB)%min(DefaultKernelBatch, n-lo)

		rows := C * K * K
		flat := make([]float64, bs*rows)
		for i := 0; i < bs; i++ {
			ii, pos := (lo+i)/positions, (lo+i)%positions
			curs[ii].PatchInto(flat[i*rows:(i+1)*rows], l, pos/l.OutW, pos%l.OutW)
		}
		// One batch serves both fills, as an engine worker's does, and starts
		// with stale codes that must not survive into the padding.
		got := &batchScratch{}
		got.pb.Reset(rows, bs, false)
		for i := range got.pb.U {
			got.pb.U[i] = 0xff
		}
		quantizeConvBatch(got, &layerExec{mode: modeFast}, l, in, cmax, lo, bs)
		want := quant.QuantizeBatchFlatCodesInto(nil, flat, rows, bs)
		cl := make([]uint8, len(want.U))
		for k := 0; k < bs; k++ {
			for c := 0; c < C; c++ {
				for ky := 0; ky < K; ky++ {
					for kx := 0; kx < K; kx++ {
						cl[k*rows+(ky*K+kx)*C+c] = want.U[k*rows+(c*K+ky)*K+kx]
					}
				}
			}
		}
		want.U = cl
		samePackedBatch(t, "fast codes", &got.pb, want)
		quantizeConvBatch(got, &layerExec{mode: modeBitExact, order: cmajorOrder(C, K*K)}, l, in, cmax, lo, bs)
		samePackedBatch(t, "bit-serial digits", &got.pb, quant.QuantizeBatchFlatInto(nil, flat, rows, bs))
	})
}
