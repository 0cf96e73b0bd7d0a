package quant

import (
	"math"
	"math/rand"
	"testing"
)

// windowCodesLoop is the oracle for WindowCodes: ActivationCode over the
// window in (channel, row, column) order, summing the rounded values.
func windowCodesLoop(dst []uint8, src []float64, scale float64, w Window) float64 {
	var sum float64
	for c := 0; c < w.Chans; c++ {
		for y := 0; y < w.Rows; y++ {
			for x := 0; x < w.Width; x++ {
				code, r := ActivationCode(src[c*w.SrcChan+y*w.SrcRow+x], scale)
				dst[c*w.DstChan+y*w.DstRow+x] = code
				sum += r
			}
		}
	}
	return sum
}

// windowValue draws one activation to quantize under scale: exact ties
// (k+0.5)·scale and their float neighbours, exact multiples, ±0, NaN,
// ±Inf, negatives, values above 255·scale, arbitrary bit patterns and
// plain in-range values.
func windowValue(rng *rand.Rand, scale float64) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return -rng.Float64() * 10 * scale
	case 5:
		return (256 + rng.Float64()*1000) * scale
	case 6, 7:
		tie := (float64(rng.Intn(256)) + 0.5) * scale
		switch rng.Intn(3) {
		case 0:
			return math.Nextafter(tie, math.Inf(-1))
		case 1:
			return math.Nextafter(tie, math.Inf(1))
		}
		return tie
	case 8:
		return float64(rng.Intn(256)) * scale
	case 9:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.Float64() * 256 * scale
}

// checkWindowCodes runs WindowCodes and the loop on the same window of
// values drawn by windowValue, the window's rows and channels spaced by
// the given gaps, and fails unless both leave dst identical byte for byte
// (so the kernel writes exactly the window) and return the same sum by
// bits, any NaN matching any NaN.
func checkWindowCodes(t *testing.T, rng *rand.Rand, scale float64, chans, rows, width, srcGapRow, srcGapChan, dstGapRow, dstGapChan int) {
	t.Helper()
	w := Window{Chans: chans, Rows: rows, Width: width,
		SrcRow: width + srcGapRow, DstRow: width + dstGapRow}
	w.SrcChan = rows*w.SrcRow + srcGapChan
	w.DstChan = rows*w.DstRow + dstGapChan
	src := make([]float64, (chans-1)*w.SrcChan+(rows-1)*w.SrcRow+width)
	for i := range src {
		src[i] = windowValue(rng, scale)
	}
	n := (chans-1)*w.DstChan + (rows-1)*w.DstRow + width
	got, want := make([]uint8, n+3), make([]uint8, n+3)
	for i := range got {
		got[i], want[i] = 0xa5, 0xa5
	}
	gs := WindowCodes(got[:n], src, scale, w)
	ws := windowCodesLoop(want, src, scale, w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %+v scale %v: dst[%d] = %d, want %d", w, scale, i, got[i], want[i])
		}
	}
	if math.Float64bits(gs) != math.Float64bits(ws) && !(math.IsNaN(gs) && math.IsNaN(ws)) {
		t.Fatalf("window %+v scale %v: sum %v (%#x), want %v (%#x)", w, scale, gs, math.Float64bits(gs), ws, math.Float64bits(ws))
	}
}

// windowScales are the scales the window tests quantize under: subnormal,
// small, 1, huge and +Inf.
var windowScales = []float64{math.SmallestNonzeroFloat64, 1e-310, 1.0 / 255, 3.7 / 255, 1, 1e300, math.MaxFloat64, math.Inf(1)}

func TestWindowCodesMatchActivationCode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, scale := range windowScales {
		for width := 1; width <= 12; width++ {
			for _, shape := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {2, 5}, {4, 3}} {
				chans, rows := shape[0], shape[1]
				checkWindowCodes(t, rng, scale, chans, rows, width, 0, 0, 0, 0)
				checkWindowCodes(t, rng, scale, chans, rows, width, 3, 1, 2, 5)
			}
		}
	}
	// A whole VGG-sized window: 512 channels of 3×3 inside a 4×4 map.
	checkWindowCodes(t, rng, 1.0/255, 512, 3, 3, 1, 4, 0, 0)
}

func TestWindowCodesEmptyAndOutOfBounds(t *testing.T) {
	if s := WindowCodes(nil, nil, 1, Window{Chans: 3, Rows: 0, Width: 2}); math.Float64bits(s) != 0 {
		t.Fatalf("empty window sum %v, want +0", s)
	}
	for _, w := range []Window{
		{Chans: 1, Rows: 2, Width: 3, SrcRow: 4, DstRow: 3},              // src needs 7 values
		{Chans: 2, Rows: 1, Width: 3, SrcRow: 3, SrcChan: 3, DstChan: 4}, // dst needs 7 codes
		{Chans: 2, Rows: 1, Width: 1, SrcChan: math.MaxInt, DstChan: 1},  // stride overflow
		{Chans: 1, Rows: 2, Width: 1, SrcRow: -1, DstRow: 1},             // negative stride
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %+v over 6 values / 6 codes: no panic", w)
				}
			}()
			WindowCodes(make([]uint8, 6), make([]float64, 6), 1, w)
		}()
	}
}

// FuzzWindowCodes: WindowCodes (the AVX2 kernel where the CPU has it) must
// match the ActivationCode loop byte for byte and its sum by bits over
// window shapes with widths 1–12, row and channel gaps in both layouts,
// scales from subnormal to +Inf (and the loop-only non-positive and NaN
// ones), and value mixes heavy in ties, their neighbours and specials.
func FuzzWindowCodes(f *testing.F) {
	// chans, rows, width, srcGapRow, srcGapChan, dstGapRow, dstGapChan, scale, seed
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), int64(1))
	f.Add(uint8(1), uint8(2), uint8(11), uint8(3), uint8(1), uint8(0), uint8(2), uint8(0), int64(2))
	f.Add(uint8(4), uint8(1), uint8(8), uint8(0), uint8(5), uint8(1), uint8(0), uint8(7), int64(3))
	f.Add(uint8(2), uint8(4), uint8(5), uint8(2), uint8(2), uint8(2), uint8(2), uint8(9), int64(4))
	f.Fuzz(func(t *testing.T, chans, rows, width, sgr, sgc, dgr, dgc, scaleB uint8, seed int64) {
		scales := append(windowScales[:len(windowScales):len(windowScales)], 0, -1, math.NaN())
		scale := scales[int(scaleB)%len(scales)]
		if scaleB >= uint8(len(scales)) {
			scale = float64(scaleB) / 255 / 255
		}
		checkWindowCodes(t, rand.New(rand.NewSource(seed)), scale,
			1+int(chans%6), 1+int(rows%6), 1+int(width%12), int(sgr%4), int(sgc%4), int(dgr%4), int(dgc%4))
	})
}

// BenchmarkWindowCodes times WindowCodes on one 3×3×64 channels-last conv
// window, as the engine's fused input path quantizes it: 3 rows of 192
// values read from a 16-pixel-wide map (row stride 1024) into a 576-code
// member row, ~40% of the values zero as after a ReLU.
func BenchmarkWindowCodes(b *testing.B) {
	const C, K, W = 64, 3, 16
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, K*W*C)
	var maxV float64
	for i := range src {
		if rng.Float64() >= 0.4 {
			src[i] = rng.Float64() * 6
			maxV = max(maxV, src[i])
		}
	}
	scale := ActivationScale(maxV)
	dst := make([]uint8, K*K*C)
	w := Window{Chans: 1, Rows: K, Width: K * C, SrcRow: W * C, DstRow: K * C}
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		WindowCodes(dst, src, scale, w)
	}
}
