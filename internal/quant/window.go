package quant

import "fmt"

// Window is the shape of a strided block of activations WindowCodes
// quantizes: Chans channels of Rows rows of Width values. Value (c, y, x)
// is read at src[c·SrcChan + y·SrcRow + x] and its code written at
// dst[c·DstChan + y·DstRow + x]; strides count elements.
type Window struct {
	Chans, Rows, Width int
	SrcRow, SrcChan    int
	DstRow, DstChan    int
}

// WindowCodes quantizes the window w of src under scale into dst, exactly
// as a loop over ActivationCode in (channel, row, column) order would, and
// returns the sum of the rounded values — the code sum SetMember takes. It
// writes only the window's bytes of dst. An empty window returns +0.
//
// On AVX2 hardware, with scale > 0 (every ActivationScale is), one kernel
// call (window_amd64.s) quantizes the whole window four lanes at a time.
// Its codes equal ActivationCode's lane by lane, and its sum, kept in four
// lane sums, equals the loop's by bits: the terms are integers in
// [0, 255] (or NaN, which any order propagates), so every partial sum of a
// window below 2⁴⁵ values is exact. FuzzWindowCodes asserts both. Other
// hardware, and other scales, run the loop itself.
func WindowCodes(dst []uint8, src []float64, scale float64, w Window) float64 {
	if w.Chans <= 0 || w.Rows <= 0 || w.Width <= 0 {
		return 0
	}
	if !w.fits(len(src), w.SrcRow, w.SrcChan) || !w.fits(len(dst), w.DstRow, w.DstChan) {
		panic(fmt.Sprintf("quant: window %+v outside %d values or %d codes", w, len(src), len(dst)))
	}
	if hasAVX2 && scale > 0 {
		return windowCodes(&dst[0], &src[0], scale, w.Chans, w.Rows, w.Width, w.SrcRow, w.SrcChan, w.DstRow, w.DstChan)
	}
	var sum float64
	for c := 0; c < w.Chans; c++ {
		for y := 0; y < w.Rows; y++ {
			s := src[c*w.SrcChan+y*w.SrcRow:][:w.Width]
			d := dst[c*w.DstChan+y*w.DstRow:][:w.Width]
			for i, v := range s {
				code, r := ActivationCode(v, scale)
				d[i] = code
				sum += r
			}
		}
	}
	return sum
}

// fits reports whether the non-empty window, laid out with the given row
// and channel strides, lies within n elements. Each product is checked
// against what remains of n before it is formed, so nothing overflows.
func (w Window) fits(n, row, chn int) bool {
	if row < 0 || chn < 0 || w.Width > n {
		return false
	}
	if w.Rows > 1 && row > (n-w.Width)/(w.Rows-1) {
		return false
	}
	last := (w.Rows-1)*row + w.Width
	return w.Chans == 1 || chn <= (n-last)/(w.Chans-1)
}
