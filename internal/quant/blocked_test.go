package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// runnableLayouts lists the blocked layouts MulBatch runs on this CPU, so
// every test runs each one, not only the one Blocked() picks: the pair
// layout where AVX2 runs, and the quad layout everywhere — on VPDPBUSD
// where the CPU has AVX512-VNNI, else on dpQuadModel.
func runnableLayouts() []blockLayout {
	ls := []blockLayout{layoutQuad}
	if hasAVX2 {
		ls = append(ls, layoutPair)
	}
	return ls
}

func (l blockLayout) String() string {
	if l == layoutQuad {
		return "quad"
	}
	return "pair"
}

// TestBlockedMatchesReference checks each runnable blocked layout
// bit-exactly against the scalar signed reference Σ_i q_i·u_i across shapes
// that exercise every tail: N mod 4 ∈ {0,1,2,3} (the pair layout's odd row,
// the quad layout's 1–3 scalar tail rows), N < 4 (no quad at all), cols % 16
// ≠ 0 (scalar column tail), extreme codes (±128, 255), and B mod 4 ∈
// {0,1,2,3}, so four-member groups meet a remainder of one-member passes
// together with the row and column tails. Where the CPU has AVX2 it also
// checks that Blocked() builds the host's layout.
func TestBlockedMatchesReference(t *testing.T) {
	shapes := []struct{ rows, cols, B int }{
		{2, 16, 1},
		{3, 16, 2},
		{64, 48, 8}, // multiple blocks
		{65, 50, 5}, // row tail + column tail
		{1, 17, 3},  // no row group: tail row only
		{200, 16, 33},
		{7, 31, 4},
		{4, 16, 4}, // exactly one quad
		{6, 33, 6}, // N mod 4 = 2, B mod 4 = 2
		{9, 37, 4},
		{33, 40, 5},
		{65, 50, 8},
		{131, 19, 9},
		{1, 16, 9}, // no row group inside a full member group
		{2, 32, 7},
		{3, 47, 11},
		{10, 64, 10},
		{259, 80, 12},
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		m := &Matrix{Rows: sh.rows, Cols: sh.cols, Bits: 8, Scale: 1, Q: make([]int8, sh.rows*sh.cols)}
		for i := range m.Q {
			m.Q[i] = int8(rng.Intn(256) - 128)
		}
		// Force extremes into the corners.
		m.Q[0] = -128
		m.Q[len(m.Q)-1] = 127
		ins := make([]*Input, sh.B)
		for k := range ins {
			u := make([]uint8, sh.rows)
			for i := range u {
				u[i] = uint8(rng.Intn(256))
			}
			u[0] = 255
			u[sh.rows-1] = 255
			ins[k] = &Input{N: sh.rows, Scale: 1, U: u}
		}
		pb := PackInputs(ins)
		if bw := m.Blocked(); hasAVX2 && bw == nil {
			t.Fatalf("%dx%d: Blocked() returned nil with AVX2 available", sh.rows, sh.cols)
		} else if hasAVX2 && bw.layout != hostLayout() {
			t.Fatalf("%dx%d: Blocked() built the %v layout, host runs %v", sh.rows, sh.cols, bw.layout, hostLayout())
		}
		for _, l := range runnableLayouts() {
			out := make([]float64, sh.B*sh.cols)
			buildBlocked(m, l).MulBatch(pb, out, make([]uint16, sh.B*sh.rows), false)
			for k := 0; k < sh.B; k++ {
				for j := 0; j < sh.cols; j++ {
					var want int64
					for i := 0; i < sh.rows; i++ {
						want += int64(m.Q[i*sh.cols+j]) * int64(ins[k].U[i])
					}
					if got := int64(out[k*sh.cols+j]); got != want {
						t.Fatalf("%v %dx%d B=%d member %d col %d: blocked %d, reference %d",
							l, sh.rows, sh.cols, sh.B, k, j, got, want)
					}
				}
			}
		}
	}
}

// TestBlockedNarrow checks the width gate: a matrix narrower than one
// 16-column block gets no blocked form.
func TestBlockedNarrow(t *testing.T) {
	m := &Matrix{Rows: 8, Cols: blockedColWidth - 1, Bits: 8, Scale: 1, Q: make([]int8, 8*(blockedColWidth-1))}
	if m.Blocked() != nil {
		t.Fatalf("Blocked() must refuse %d columns", m.Cols)
	}
}

// TestBlockedRowBound checks the memo's overflow gate: matrices above
// maxBlockedRows must not get a blocked form.
func TestBlockedRowBound(t *testing.T) {
	m := &Matrix{Rows: maxBlockedRows + 1, Cols: 16, Bits: 8, Scale: 1, Q: make([]int8, (maxBlockedRows+1)*16)}
	if m.Blocked() != nil {
		t.Fatalf("Blocked() must refuse %d rows (bound %d)", m.Rows, maxBlockedRows)
	}
}

// TestBlockedWorstCaseAtRowBound runs each runnable layout at exactly
// maxBlockedRows rows with every weight −128 and every code 255, the most
// negative sum an int32 lane must hold: −32640 per row, −2 147 483 520 per
// column (32896 pairs or 16448 quads, plus one tail row). B = 5 sends four
// members through the four-member kernel and one through the one-member
// kernel; the 17th column goes through the scalar column sweep.
func TestBlockedWorstCaseAtRowBound(t *testing.T) {
	const rows, cols, B = maxBlockedRows, 17, 5
	const want = -128 * 255 * rows
	if rows != 65793 || want != -2147483520 {
		t.Fatalf("bound moved: %d rows, worst-case column sum %d", rows, want)
	}
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = -128
	}
	if hasAVX2 && m.Blocked() == nil {
		t.Fatalf("Blocked() refused %d rows (bound %d)", rows, maxBlockedRows)
	}
	ins := make([]*Input, B)
	for k := range ins {
		u := make([]uint8, rows)
		for i := range u {
			u[i] = 255
		}
		ins[k] = &Input{N: rows, Scale: 1, U: u}
	}
	pb := PackInputs(ins)
	for _, l := range runnableLayouts() {
		out := make([]float64, B*cols)
		buildBlocked(m, l).MulBatch(pb, out, make([]uint16, B*rows), false)
		for i, v := range out {
			if v != want {
				t.Fatalf("%v member %d col %d: %v, want %d", l, i/cols, i%cols, v, want)
			}
		}
	}
}

// TestBlockedEpilogue checks MulBatch's fused epilogue in every runnable
// layout against the integer reference dequantized as the engine always
// did it, (ScaleFor(j)·f_k)·Σ_i q_i·u_k[i], by bits: per-tensor and
// per-column weight scales, subnormal activation scales whose products
// underflow to ±0, and ReLU on and off — with ReLU, v < 0 becomes +0 and
// −0 stays −0. The shapes carry 1–3 tail rows past the last quad, a column
// tail and a B mod 4 remainder.
func TestBlockedEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []struct{ rows, cols, B int }{{27, 40, 6}, {66, 16, 5}, {7, 35, 9}, {4, 17, 4}} {
		for _, perCol := range []bool{false, true} {
			m := &Matrix{Rows: sh.rows, Cols: sh.cols, Bits: 8, Scale: 0.0123, Q: make([]int8, sh.rows*sh.cols)}
			for i := range m.Q {
				m.Q[i] = int8(rng.Intn(256) - 128)
			}
			if perCol {
				m.ColScales = make([]float64, sh.cols)
				for j := range m.ColScales {
					m.ColScales[j] = rng.Float64() / 64
				}
			}
			pb := &PackedBatch{}
			pb.Reset(sh.rows, sh.B, false)
			for k := 0; k < sh.B; k++ {
				u := pb.Member(k)
				var sum float64
				for i := range u {
					u[i] = uint8(rng.Intn(256))
					sum += float64(u[i])
				}
				f := rng.Float64() / 255
				if k%3 == 2 {
					f = math.SmallestNonzeroFloat64 // s·f underflows to +0: −0 for negative sums
				}
				pb.SetMember(k, f, sum)
			}
			for _, relu := range []bool{false, true} {
				for _, l := range runnableLayouts() {
					out := make([]float64, sh.B*sh.cols)
					buildBlocked(m, l).MulBatch(pb, out, make([]uint16, sh.B*sh.rows), relu)
					var negZero int
					for k := 0; k < sh.B; k++ {
						for j := 0; j < sh.cols; j++ {
							var acc int64
							for i, c := range pb.Member(k) {
								acc += int64(m.Q[i*sh.cols+j]) * int64(c)
							}
							want := m.ScaleFor(j) * pb.Scales[k] * float64(acc)
							if relu && want < 0 {
								want = 0
							}
							if want == 0 && math.Signbit(want) {
								negZero++
							}
							if got := out[k*sh.cols+j]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v %dx%d perCol=%v relu=%v member %d col %d: %v, want %v", l, sh.rows, sh.cols, perCol, relu, k, j, got, want)
							}
						}
					}
					if negZero == 0 {
						t.Fatalf("%v %dx%d perCol=%v relu=%v: no −0 output; the test needs one", l, sh.rows, sh.cols, perCol, relu)
					}
				}
			}
		}
	}
}

// TestKernelsWrapLikeInt32 calls each runnable layout's one- and
// four-member micro-kernels directly, with every accumulator preloaded
// within a few hundred of an int32 limit and weights whose sign drives the
// lane across it, and checks each lane against Go's int32 arithmetic,
// which wraps. The lanes must add exact products with a wrapping add
// (VPDPBUSD, VPADDD), never a saturating one (VPDPBUSDS), with the codes as
// the unsigned operand; MulBatch never gets near the limits (maxBlockedRows),
// so only a direct call can tell the two adds apart. The member stride is
// wider than the rows the kernel reads, as a conv batch's is. The quad
// layout runs dpQuadModel, and on a CPU with AVX512-VNNI dpQuad4/dpQuad
// too, from the same preloaded lanes, which pins the model to the kernel.
func TestKernelsWrapLikeInt32(t *testing.T) {
	const groups, N = 5, 23
	rng := rand.New(rand.NewSource(7))
	for _, l := range runnableLayouts() {
		rows := groups * int(l)
		m := &Matrix{Rows: rows, Cols: blockedColWidth, Bits: 8, Scale: 1, Q: make([]int8, rows*blockedColWidth)}
		for i := range m.Q {
			if i%2 == 0 { // even columns push up, odd columns down
				m.Q[i] = int8(1 + rng.Intn(127))
			} else {
				m.Q[i] = int8(-1 - rng.Intn(128))
			}
		}
		w := buildBlocked(m, l).Data
		u := make([]uint8, memberBlock*N)
		u16 := make([]uint16, len(u))
		for i := range u {
			u[i] = uint8(1 + rng.Intn(255))
			u16[i] = uint16(u[i])
		}
		for _, members := range []int{1, memberBlock} {
			var acc, want [memberBlock][blockedColWidth]int32
			for k := 0; k < members; k++ {
				for j := range acc[k] {
					acc[k][j] = math.MaxInt32 - int32(rng.Intn(300))
					if j%2 == 1 {
						acc[k][j] = math.MinInt32 + int32(rng.Intn(300))
					}
					want[k][j] = acc[k][j]
					for i := 0; i < rows; i++ {
						want[k][j] += int32(m.Q[i*blockedColWidth+j]) * int32(u[k*N+i])
					}
				}
			}
			if l == layoutQuad {
				model := acc
				dpQuadModel(w, u, &model, groups, members, N)
				if model != want {
					t.Fatalf("quad model, %d members: lanes %v, int32 reference %v", members, model, want)
				}
				if !hasVNNI {
					continue
				}
			}
			switch {
			case l == layoutQuad && members == memberBlock:
				dpQuad4(&w[0], &u[0], &acc[0][0], groups, N)
			case l == layoutQuad:
				dpQuad(&w[0], &u[0], &acc[0][0], groups)
			case members == memberBlock:
				maddBlock4(&w[0], &u16[0], &acc[0][0], groups, 2*N)
			default:
				maddBlock(&w[0], &u16[0], &acc[0][0], groups)
			}
			if acc != want {
				t.Fatalf("%v, %d members: lanes %v, int32 reference %v", l, members, acc, want)
			}
		}
	}
}

// BenchmarkBlockedMulBatchConv4 times each runnable blocked layout on VGG16
// conv4_2's shape (4608×512) with ~40% zero activations, the post-ReLU
// regime the serving path sees, at B = 1 (one-member kernel only), 4 (one
// four-member group) and 32 (RunBatch's kernel batch). SetBytes counts
// MACs, so MB/s reads as MMAC/s; GMAC/s is reported directly too.
func BenchmarkBlockedMulBatchConv4(b *testing.B) {
	const rows, cols = 4608, 512
	rng := rand.New(rand.NewSource(1))
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(256) - 128)
	}
	if m.Blocked() == nil {
		b.Skip("no AVX2 blocked kernel on this CPU")
	}
	for _, l := range runnableLayouts() {
		bw := buildBlocked(m, l)
		for _, B := range []int{1, 4, 32} {
			xs := make([]float64, rows*B)
			for i := range xs {
				if rng.Float64() >= 0.4 {
					xs[i] = rng.Float64() * 100
				}
			}
			pb := QuantizeBatchFlatInto(nil, xs, rows, B)
			out := make([]float64, B*cols)
			u16 := make([]uint16, B*rows)
			macs := int64(rows) * int64(cols) * int64(B)
			b.Run(fmt.Sprintf("%v/B=%d", l, B), func(b *testing.B) {
				b.SetBytes(macs)
				for i := 0; i < b.N; i++ {
					bw.MulBatch(pb, out, u16, false)
				}
				b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// vgg16Shapes are the (rows, cols) weight shapes of VGG16's blocked layers
// on a 32×32 input: 13 3×3 convolutions and the two wide FC layers (fc16's
// 10 columns never block).
var vgg16Shapes = [][2]int{
	{27, 64}, {576, 64},
	{576, 128}, {1152, 128},
	{1152, 256}, {2304, 256}, {2304, 256},
	{2304, 512}, {4608, 512}, {4608, 512},
	{4608, 512}, {4608, 512}, {4608, 512},
	{512, 4096}, {4096, 4096},
}

// BenchmarkBuildBlocked times buildBlocked in each layout over every
// VGG16-sized shape (one op packs all of them, ~33M weights), the packing
// cost a fresh engine pays once per layer before its first inference.
func BenchmarkBuildBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ms := make([]*Matrix, len(vgg16Shapes))
	var weights int64
	for i, s := range vgg16Shapes {
		m := &Matrix{Rows: s[0], Cols: s[1], Bits: 8, Scale: 1, Q: make([]int8, s[0]*s[1])}
		for j := range m.Q {
			m.Q[j] = int8(rng.Intn(256) - 128)
		}
		ms[i] = m
		weights += int64(len(m.Q))
	}
	for _, l := range []blockLayout{layoutPair, layoutQuad} {
		b.Run(l.String(), func(b *testing.B) {
			b.SetBytes(weights)
			for i := 0; i < b.N; i++ {
				for _, m := range ms {
					sinkBlocked = buildBlocked(m, l)
				}
			}
		})
	}
}

var sinkBlocked *BlockedMatrix
