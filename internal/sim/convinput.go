package sim

import (
	"autohet/internal/dnn"
	"autohet/internal/quant"
)

// The fused input path. A crossbar takes a conv layer as one unrolled
// input column per sliding-window position, zero outside the map; which
// row holds which (c, ky, kx) tap is a mapping choice, and the engine's
// fast mode makes it (ky, kx, c): its activations are channels-last, so a
// K×K window is K runs of K·C contiguous values, and its weight rows are
// permuted to match once per memoized matrix (permuteRows). The bit-serial
// modes keep the model's C-major rows — crossbar row bands, stuck-at maps
// and repair remaps are positional — and gather each window's codes
// through the layer's cmajorOrder table. The engine writes each window's
// uint8 codes straight from the activations, with no float64 copy of the
// column in between:
//
//   - a window's quantization max is the max over its K×K pixels of the
//     input's per-pixel channel-max map, built once per (layer, input).
//     Max is exact in any order, the map uses QuantizeMember's own v > m
//     comparison from 0 (NaN never wins, −0 never replaces +0), and padding
//     pixels would contribute 0 — the floor every max starts from;
//   - codes are quantized by quant.WindowCodes, one call per window, which
//     codes each value exactly as quant.ActivationCode does, and the code
//     sum adds exact integers, so it does not depend on the order; codes
//     (up to the row permutation), scales and code sums are bit-identical
//     to PatchInto followed by quant.QuantizeBatchFlatInto
//     (FuzzFusedPatchCodes asserts it).
//
// An FC layer's input is the flattened activations of the layer before it,
// channels-last when that layer is spatial; its member is quantized the
// same way, as one window of one row.

// cmajorOrder returns the table that takes codes of C channels × S
// spatial taps from channels-last order (tap-major, index s·C+c) to the
// model's C-major order (channel-major, index c·S+s): order[c·S+s] = s·C+c.
// It returns nil when the two orders coincide (C or S is 1), as for a 1×1
// conv or an FC layer after another FC layer.
func cmajorOrder(C, S int) []int32 {
	if C == 1 || S == 1 {
		return nil
	}
	order := make([]int32, C*S)
	for c := 0; c < C; c++ {
		for s := 0; s < S; s++ {
			order[c*S+s] = int32(s*C + c)
		}
	}
	return order
}

// permuteRows returns w with its C-major row i moved to row order[i], the
// channels-last order — w itself, shared and not copied, when order is
// nil. Rows are whole columns of integer weights and a dot product of
// integers is exact in any order, so the permuted matrix against
// channels-last codes gives every sum the original gives against C-major
// codes.
func permuteRows(w *quant.Matrix, order []int32) *quant.Matrix {
	if order == nil {
		return w
	}
	p := &quant.Matrix{Rows: w.Rows, Cols: w.Cols, Bits: w.Bits, Scale: w.Scale, ColScales: w.ColScales,
		Q: make([]int8, len(w.Q))}
	cols := w.Cols
	for i, o := range order {
		copy(p.Q[int(o)*cols:(int(o)+1)*cols], w.Q[i*cols:(i+1)*cols])
	}
	return p
}

// channelMax fills dst with the channel-max of each of the len(dst) pixels
// of the channels-last row src (C values a pixel): the max over the pixel's
// channels, taken from 0 by v > m.
func channelMax(dst, src []float64, C int) {
	for x := range dst {
		var m float64
		for _, v := range src[x*C : (x+1)*C] {
			if v > m {
				m = v
			}
		}
		dst[x] = m
	}
}

// quantizeWindow quantizes the K×K window with top-left (y0, x0) — which
// may lie in the zero padding — of input i of in into dst (K·K·C codes in
// channels-last order) and returns its scale and code sum. cmax holds
// every input's channel-max map.
func quantizeWindow(dst []uint8, in acts, i int, cmax []float64, K, y0, x0 int) (scale, sum float64) {
	H, W, C := in.h, in.w, in.c
	// Rows [ya, yb) and columns [xa, xb) of the window lie inside the map.
	ya, yb := max(y0, 0), min(y0+K, H)
	xa, xb := max(x0, 0), min(x0+K, W)
	if ya != y0 || yb != y0+K || xa != x0 || xb != x0+K {
		clear(dst) // padding codes
	}
	if ya >= yb || xa >= xb {
		return quant.ActivationScale(0), 0 // wholly in the padding
	}
	var maxV float64
	for y := ya; y < yb; y++ {
		for _, v := range cmax[(i*H+y)*W+xa : (i*H+y)*W+xb] {
			if v > maxV {
				maxV = v
			}
		}
	}
	scale = quant.ActivationScale(maxV)
	// One call codes the part inside the map: a run of (xb−xa)·C values per
	// window row. A padding zero would add +0 to the code sum, which never
	// changes it (the sum starts at +0 and only grows or turns NaN), so
	// padding is skipped.
	sum = quant.WindowCodes(dst[((ya-y0)*K+xa-x0)*C:], in.data[((i*H+ya)*W+xa)*C:], scale, quant.Window{
		Chans: 1, Rows: yb - ya, Width: (xb - xa) * C, SrcRow: W * C, DstRow: K * C,
	})
	return scale, sum
}

// quantizeConvWindow quantizes conv window j of the global (input,
// position) index space of in as member k of pb, in the code order and
// with the digit slab le's mode takes, using s's scratch. cmax holds every
// input's channel-max map back to back.
func quantizeConvWindow(s *batchScratch, pb *quant.PackedBatch, k int, le *layerExec, l *dnn.Layer, in acts, cmax []float64, j int) {
	positions := l.OutH * l.OutW
	i, pos := j/positions, j%positions
	oy, ox := pos/l.OutW, pos%l.OutW
	scale, sum := quantizeWindow(s.memberCodes(le, pb, k), in, i, cmax, l.K, oy*l.Stride-l.Pad, ox*l.Stride-l.Pad)
	s.setMember(le, pb, k, scale, sum)
}

// quantizeVector quantizes x, one input's flattened activations, as
// member k of pb in the code order le's mode takes: the scale from x's
// max (taken from 0 by v > m), the codes and code sum by quant.WindowCodes
// over one row — as QuantizeMember would.
func quantizeVector(s *batchScratch, pb *quant.PackedBatch, k int, le *layerExec, x []float64) {
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	scale := quant.ActivationScale(maxV)
	sum := quant.WindowCodes(s.memberCodes(le, pb, k), x, scale, quant.Window{Chans: 1, Rows: 1, Width: len(x)})
	s.setMember(le, pb, k, scale, sum)
}
