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

// runnableKernels builds m in every layout and kernel MulBatch runs on this
// CPU: the quad layout on dpQuadModel everywhere and on VPDPBUSD where the
// CPU has AVX512-VNNI, and the pair layout where AVX2 runs.
func runnableKernels(m *Matrix) []*BlockedMatrix {
	model := buildBlocked(m, layoutQuad)
	model.model = true
	bms := []*BlockedMatrix{model}
	if hasVNNI {
		bms = append(bms, buildBlocked(m, layoutQuad))
	}
	if hasAVX2 {
		bms = append(bms, buildBlocked(m, layoutPair))
	}
	return bms
}

func (bm *BlockedMatrix) String() string {
	if bm.model {
		return "quad model"
	}
	return bm.layout.String()
}

func (l blockLayout) String() string {
	if l == layoutQuad {
		return "quad"
	}
	return "pair"
}

// TestBlockedMatchesReference checks each runnable blocked layout
// bit-exactly against the scalar signed reference Σ_i q_i·u_i across shapes
// that exercise every tail: N mod 4 ∈ {0,1,2,3} (the pair layout's padded
// odd row, the quad layout's 1–3 padded rows), N < 4 (one padded quad),
// cols % 16 ≠ 0 (padded column block), extreme codes (±128, 255), and
// B mod 4 ∈ {0,1,2,3}, so four-member groups meet a remainder of one-member
// passes together with the row and column tails. Where the CPU has AVX2 it also
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
			mulAll(buildBlocked(m, l), pb, out, false)
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

// mulAll runs bm over every member and block of pb, with the codes widened
// into a u16 of exactly the length MulBatch needs.
func mulAll(bm *BlockedMatrix, pb *PackedBatch, out []float64, relu bool) {
	u16 := make([]uint16, pb.B*pb.N+U16Slack)
	bm.WidenCodes(pb, u16, 0, pb.B)
	bm.MulBatch(pb, out, u16, relu, 0, bm.Blocks)
}

// TestBlockedNarrow checks the width gate: a matrix narrower than one
// 16-column block gets a blocked form of one zero-padded block wherever
// the CPU runs the kernel, and it matches the reference.
func TestBlockedNarrow(t *testing.T) {
	m := &Matrix{Rows: 8, Cols: blockedColWidth - 1, Bits: 8, Scale: 1, Q: make([]int8, 8*(blockedColWidth-1))}
	for i := range m.Q {
		m.Q[i] = int8(i*37 - 100)
	}
	bw := m.Blocked()
	if hasAVX2 && (bw == nil || bw.Blocks != 1) {
		t.Fatalf("Blocked() of %d columns = %+v, want one block", m.Cols, bw)
	}
	u := []uint8{255, 0, 3, 200, 17, 1, 128, 99}
	pb := PackInputs([]*Input{{N: 8, Scale: 1, U: u}})
	for _, l := range runnableLayouts() {
		out := make([]float64, m.Cols)
		mulAll(buildBlocked(m, l), pb, out, false)
		for j, got := range out {
			var want int64
			for i, c := range u {
				want += int64(m.Q[i*m.Cols+j]) * int64(c)
			}
			if int64(got) != want {
				t.Fatalf("%v col %d: %v, want %d", l, j, got, want)
			}
		}
	}
}

// TestBlockedTailsAndRanges runs every runnable kernel (runnableKernels)
// over every row count
// 1–9, 27 (VGG16 conv1_1), 4607 and 4609 (one short of and one past a
// quad multiple of conv5's 4608), every column count 1–40 and B = 1–5,
// against the scalar reference. The batch's codes carry exactly codeSlack
// bytes of 0xff past the last member and the widened codes exactly
// U16Slack values of 0xffff, so the padded row group reads nothing but
// garbage there, which must meet zero weights. The blocks are cut into
// random ranges [b0, b1) whose union is every block, each run into its own
// NaN-filled output: a range must write exactly its own columns.
func TestBlockedTailsAndRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 4607, 4609}
	for _, rows := range rowCounts {
		for cols := 1; cols <= 40; cols++ {
			m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
			for i := range m.Q {
				m.Q[i] = int8(rng.Intn(256) - 128)
			}
			for B := 1; B <= 5; B++ {
				pb := &PackedBatch{N: rows, B: B, Scales: make([]float64, B), USums: make([]float64, B),
					U: make([]uint8, B*rows, B*rows+codeSlack)}
				for i := range pb.U[:cap(pb.U)] {
					pb.U[:cap(pb.U)][i] = 0xff
				}
				for i := range pb.U {
					pb.U[i] = uint8(rng.Intn(256))
				}
				for k := range pb.Scales {
					pb.Scales[k] = 1
				}
				want := make([]int64, B*cols)
				for k := 0; k < B; k++ {
					for i, c := range pb.Member(k) {
						for j, q := range m.Q[i*cols : (i+1)*cols] {
							want[k*cols+j] += int64(q) * int64(c)
						}
					}
				}
				for _, bm := range runnableKernels(m) {
					u16 := make([]uint16, B*rows+U16Slack)
					u16[B*rows] = 0xffff
					bm.WidenCodes(pb, u16, 0, B)
					for b0 := 0; b0 < bm.Blocks; {
						b1 := b0 + 1 + rng.Intn(bm.Blocks-b0)
						out := make([]float64, B*cols)
						for i := range out {
							out[i] = math.NaN()
						}
						bm.MulBatch(pb, out, u16, false, b0, b1)
						for k := 0; k < B; k++ {
							for j := 0; j < cols; j++ {
								got := out[k*cols+j]
								inRange := j >= b0*blockedColWidth && j < b1*blockedColWidth
								if !inRange && !math.IsNaN(got) {
									t.Fatalf("%v %dx%d B=%d blocks [%d,%d): wrote col %d outside the range", bm, rows, cols, B, b0, b1, j)
								}
								if inRange && got != float64(want[k*cols+j]) {
									t.Fatalf("%v %dx%d B=%d blocks [%d,%d) member %d col %d: %v, reference %d", bm, rows, cols, B, b0, b1, k, j, got, want[k*cols+j])
								}
							}
						}
						b0 = b1
					}
				}
			}
		}
	}
}

// TestBlockedSlackRequired checks that MulBatch refuses a batch whose codes
// lack the slack the padded row group reads, a pair-layout u16 without
// its extra value, and a block range outside the matrix.
func TestBlockedSlackRequired(t *testing.T) {
	m := &Matrix{Rows: 5, Cols: 20, Bits: 8, Scale: 1, Q: make([]int8, 100)}
	const B = 2
	for _, l := range runnableLayouts() {
		bm := buildBlocked(m, l)
		ok := &PackedBatch{N: 5, B: B, Scales: make([]float64, B), USums: make([]float64, B), U: make([]uint8, 10, 10+codeSlack)}
		short := *ok
		short.U = make([]uint8, 10, 10+codeSlack-1)
		u16 := make([]uint16, 10+U16Slack)
		out := make([]float64, B*20)
		cases := []struct {
			name   string
			pb     *PackedBatch
			u16    []uint16
			b0, b1 int
		}{
			{"codes without slack", &short, u16, 0, bm.Blocks},
			{"block range past the matrix", ok, u16, 1, bm.Blocks + 1},
			{"reversed block range", ok, u16, 2, 1},
		}
		if l == layoutPair {
			cases = append(cases, struct {
				name   string
				pb     *PackedBatch
				u16    []uint16
				b0, b1 int
			}{"u16 without slack", ok, u16[:10], 0, bm.Blocks})
		}
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: %s: MulBatch did not panic", l, c.name)
					}
				}()
				bm.MulBatch(c.pb, out, c.u16, false, c.b0, c.b1)
			}()
		}
		bm.MulBatch(ok, out, u16, false, 0, bm.Blocks) // the exact minimum runs
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
// column (32897 pairs or 16449 quads, the last one zero-padded). B = 5 sends four
// members through the four-member kernel and one through the one-member
// kernel; the 17th column sits in a zero-padded second block.
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
		mulAll(buildBlocked(m, l), pb, out, false)
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
// −0 stays −0. The shapes carry 1–3 padded rows in the last quad, a padded
// column block and a B mod 4 remainder.
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
					mulAll(buildBlocked(m, l), pb, out, relu)
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
		u := make([]uint8, MemberBlock*N)
		u16 := make([]uint16, len(u))
		for i := range u {
			u[i] = uint8(1 + rng.Intn(255))
			u16[i] = uint16(u[i])
		}
		for _, members := range []int{1, MemberBlock} {
			var acc, want [MemberBlock][blockedColWidth]int32
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
			case l == layoutQuad && members == MemberBlock:
				dpQuad4(&w[0], &u[0], &acc[0][0], groups, N)
			case l == layoutQuad:
				dpQuad(&w[0], &u[0], &acc[0][0], groups)
			case members == MemberBlock:
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
			u16 := make([]uint16, B*rows+U16Slack)
			bw.WidenCodes(pb, u16, 0, B)
			macs := int64(rows) * int64(cols) * int64(B)
			b.Run(fmt.Sprintf("%v/B=%d", l, B), func(b *testing.B) {
				b.SetBytes(macs)
				for i := 0; i < b.N; i++ {
					bw.MulBatch(pb, out, u16, false, 0, bw.Blocks)
				}
				b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// vgg16Shapes are the (rows, cols) weight shapes of VGG16's blocked layers
// on a 32×32 input: 13 3×3 convolutions and the three FC layers (fc16's
// 10 columns fill one zero-padded block).
var vgg16Shapes = [][2]int{
	{27, 64}, {576, 64},
	{576, 128}, {1152, 128},
	{1152, 256}, {2304, 256}, {2304, 256},
	{2304, 512}, {4608, 512}, {4608, 512},
	{4608, 512}, {4608, 512}, {4608, 512},
	{512, 4096}, {4096, 4096}, {4096, 10},
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
