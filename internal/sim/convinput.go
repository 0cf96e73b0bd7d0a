package sim

import (
	"autohet/internal/dnn"
	"autohet/internal/quant"
)

// The fused conv input path. A crossbar takes a conv layer as one unrolled
// input column per sliding-window position (dnn.Tensor.PatchInto's
// (c, ky, kx) order, zero outside the tensor). The engine writes each
// window's uint8 codes straight from the activation tensor, with no float64
// copy of the column in between:
//
//   - a window's quantization max is the max over its K×K pixels of the
//     input's per-pixel channel-max map, built once per (layer, input).
//     Max is exact in any order, the map uses QuantizeMember's own v > m
//     comparison from 0 (NaN never wins, −0 never replaces +0), and padding
//     pixels would contribute 0 — the floor every max starts from;
//   - codes are quantized by quant.WindowCodes, one call per window, which
//     codes exactly as quant.ActivationCode in the column's own order does,
//     so codes, scales and code sums are bit-identical to PatchInto followed
//     by quant.QuantizeBatchFlatInto (FuzzFusedPatchCodes asserts it).

// channelMaxRow fills dst (length t.W) with row y of t's channel-max map:
// the max over channels of each pixel, taken from 0 by v > m.
func channelMaxRow(dst []float64, t *dnn.Tensor, y int) {
	clear(dst)
	plane := t.H * t.W
	for c := 0; c < t.C; c++ {
		row := t.Data[c*plane+y*t.W:][:len(dst)]
		for x, v := range row {
			if v > dst[x] {
				dst[x] = v
			}
		}
	}
}

// quantizeWindow quantizes t's K×K window with top-left (y0, x0) — which
// may lie in the zero padding — as member k of pb. cmax is t's channel-max
// map.
func quantizeWindow(pb *quant.PackedBatch, k int, t *dnn.Tensor, cmax []float64, K, y0, x0 int) {
	H, W := t.H, t.W
	// Rows [ya, yb) and columns [xa, xb) of the window lie inside t.
	ya, yb := max(y0, 0), min(y0+K, H)
	xa, xb := max(x0, 0), min(x0+K, W)
	u := pb.Member(k)
	if ya != y0 || yb != y0+K || xa != x0 || xb != x0+K {
		clear(u) // padding codes
	}
	if ya >= yb || xa >= xb {
		pb.SetMember(k, quant.ActivationScale(0), 0) // wholly in the padding
		return
	}
	var maxV float64
	for y := ya; y < yb; y++ {
		for _, v := range cmax[y*W+xa : y*W+xb] {
			if v > maxV {
				maxV = v
			}
		}
	}
	scale := quant.ActivationScale(maxV)
	// One call codes the part inside t, all channels. A padding zero would
	// add +0 to the code sum, which never changes it (the sum starts at +0
	// and only grows or turns NaN), so padding is skipped.
	sum := quant.WindowCodes(u[(ya-y0)*K+xa-x0:], t.Data[ya*W+xa:], scale, quant.Window{
		Chans: t.C, Rows: yb - ya, Width: xb - xa,
		SrcRow: W, SrcChan: H * W, DstRow: K, DstChan: K * K,
	})
	pb.SetMember(k, scale, sum)
}

// quantizeConvBatch resets pb to bs members and quantizes the conv windows
// lo, …, lo+bs-1 of the global (input, position) index space into it, with
// a digit slab when digits is set. cmax holds every input's channel-max map
// back to back.
func quantizeConvBatch(pb *quant.PackedBatch, l *dnn.Layer, curs []*dnn.Tensor, cmax []float64, lo, bs int, digits bool) {
	positions := l.OutH * l.OutW
	plane := curs[0].H * curs[0].W
	pb.Reset(curs[0].C*l.K*l.K, bs, digits)
	for i := 0; i < bs; i++ {
		ii, pos := (lo+i)/positions, (lo+i)%positions
		oy, ox := pos/l.OutW, pos%l.OutW
		quantizeWindow(pb, i, curs[ii], cmax[ii*plane:(ii+1)*plane], l.K, oy*l.Stride-l.Pad, ox*l.Stride-l.Pad)
	}
}
